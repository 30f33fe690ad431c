import hashlib
import json
import warnings

import numpy as np
import pytest

from driftlab import estimating
from driftlab.adequacy import simulate_states_at
from driftlab.errors import EstimationFailedError, InvalidStartError
from driftlab.estimating import EULER_SUBSTEPS, EstimatingFunction, ee_solve, raw_moment_psi
from driftlab.models import DiffusionSpec, GbmParams, gbm_beta_spec, gbm_spec
from driftlab.observe import ObservationSet
from driftlab.rng import stream
from driftlab.simulate import euler_advance

SPEC = gbm_spec(GbmParams(beta=0.1, sigma=0.2, x0=1.0))


def _obs(times, key, p=GbmParams(beta=0.1, sigma=0.2, x0=1.0)):
    return ObservationSet(times=times, values=simulate_states_at(p, times, stream(*key))[:, 0])


def mc_conditional_expectation(spec, ef, dt, x, seed):
    """(E[psi(x, X_dt, theta) | X_0 = x], dropped replicate count) for one pair,
    from J Euler paths driven by the stream keyed ``seed``, in the solve's contiguous
    layout: (1, J) start states and substep lengths, (EULER_SUBSTEPS, 1, J) normals."""
    z = stream(seed).standard_normal((1, ef.J, EULER_SUBSTEPS)).transpose(2, 0, 1).copy()
    x0, sub_dts = np.full((1, ef.J), x), np.full((1, ef.J), dt / EULER_SUBSTEPS)
    est, dropped = estimating._mc_expectations(spec, ef.psi, x0, sub_dts, z)
    return est[0], dropped


def test_constant_psi_returns_one_exactly():
    ef = EstimatingFunction(psi=lambda x, y, th: np.ones(np.shape(y) + (1,)), J=7)
    est, _ = mc_conditional_expectation(SPEC, ef, 1.0, 1.0, seed=3)
    assert est[0] == 1.0


def test_identity_psi_estimates_conditional_mean():
    # E[Y | x] = x e^{beta (t - s)} for GBM
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=10_000)
    est, _ = mc_conditional_expectation(SPEC, ef, 0.5, 1.0, seed=4)
    target = np.exp(0.1 * 0.5)
    # MC standard error of the mean at J = 1e4
    se = target * 0.2 * np.sqrt(0.5) / np.sqrt(10_000)
    assert abs(est[0] - target) < 3.5 * se


def test_variance_shrinks_with_j():
    ef1 = EstimatingFunction(psi=raw_moment_psi((1,)), J=1)
    ef100 = EstimatingFunction(psi=raw_moment_psi((1,)), J=100)
    est1 = np.array([mc_conditional_expectation(SPEC, ef1, 0.5, 1.0, (9, r))[0][0]
                     for r in range(1000)])
    est100 = np.array([mc_conditional_expectation(SPEC, ef100, 0.5, 1.0, (9, r))[0][0]
                       for r in range(1000)])
    ratio = est1.var(ddof=1) / est100.var(ddof=1)
    assert 60 < ratio < 160


def test_all_divergent_raises():
    bad = DiffusionSpec(drift=lambda x, th: np.full_like(x, np.nan),
                        diffusion=lambda x, th: np.ones_like(x),
                        theta=[0.0], x0=[1.0])
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=4)
    with pytest.raises(EstimationFailedError):
        mc_conditional_expectation(bad, ef, 1.0, 1.0, seed=0)


def test_divergence_counter_in_diagnostics():
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=16)
    _, dropped = mc_conditional_expectation(SPEC, ef, 0.5, 1.0, seed=1)
    assert dropped == 0


def _block(n_pairs, J, key):
    """(start states, substep lengths, normals) of n_pairs pairs at J replicates, in the
    solve's contiguous layout, from the GBM record ``_obs(0.1 * arange(n_pairs + 1), key)``."""
    x = _obs(0.1 * np.arange(n_pairs + 1), key).values[:-1]
    z = stream(*key, "z").standard_normal((EULER_SUBSTEPS, n_pairs, J))
    return np.repeat(x, J).reshape(n_pairs, J), np.full((n_pairs, J), 0.1 / EULER_SUBSTEPS), z


def test_partly_divergent_pairs_average_their_finite_replicates():
    # psi is non-finite wherever a path ends above 1.02 times its start: some
    # replicates of some pairs are lost, no pair loses all J, and the masked mean
    # keeps each pair's finite replicates as a per-pair loop over them does
    def psi(x, y, th):
        y = np.asarray(y, dtype=float)
        return np.stack([y, np.where(y > 1.02 * x, np.inf, x * y)], axis=-1)

    x0, sub_dts, z = _block(12, 6, (37, 0))
    est, dropped = estimating._mc_expectations(SPEC, psi, x0, sub_dts, z)
    y = euler_advance(SPEC, x0, sub_dts[None], z)
    expected, kept = np.empty((12, 2)), []
    for i in range(12):
        values = psi(x0[i], y[i], SPEC.theta)
        keep = np.isfinite(values).all(axis=1)
        expected[i] = values[keep].sum(axis=0) / keep.sum()
        kept.append(int(keep.sum()))
    assert 0 < min(kept) < max(kept) == 6  # some pairs lose some replicates, none loses all
    assert dropped == 12 * 6 - sum(kept) and est.tobytes() == expected.tobytes()


def test_a_transposed_psi_takes_the_plain_mean_bit_for_bit():
    # an (n, k) psi laid out column by column: no replicate diverges, and the mean
    # over J equals the masked mean of the same values bit for bit
    def psi(x, y, th):
        return np.stack([y, x * y, y**2]).T

    x0, sub_dts, z = _block(10, 8, (38, 0))
    est, dropped = estimating._mc_expectations(SPEC, psi, x0, sub_dts, z)
    y = euler_advance(SPEC, x0, sub_dts[None], z)
    sim = psi(x0.reshape(-1), y.reshape(-1), SPEC.theta).reshape(10, 8, 3)
    assert not sim.flags.c_contiguous
    ok = np.isfinite(sim).all(axis=2)
    masked = np.where(ok[:, :, None], sim, 0.0).sum(axis=1) / ok.sum(axis=1)[:, None]
    assert dropped == 0 and est.tobytes() == masked.tobytes()


def test_ee_at_the_benchmark_design_keeps_its_pinned_digest():
    # ee_solve at J 8 on six 200-pair GBM records (beta 0.1, sigma 0.3, dt 0.05)
    # from the moment start of beta, seeds (1, "golden", "ee", i): every byte of
    # theta_hat, the residual norm, the Jacobian count and the dropped replicates,
    # taken while every key word was still mixed over the rows and every residual
    # masked its replicates
    fits = []
    for i in range(6):
        obs = _obs(0.05 * np.arange(201), (1, "golden", i), GbmParams(beta=0.1, sigma=0.3))
        r, dts = np.diff(np.log(obs.values)), np.diff(obs.times)
        beta0 = float(np.mean(r / dts) + 0.5 * np.std(r / np.sqrt(dts), ddof=1) ** 2)
        ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=8)
        fit = ee_solve(gbm_beta_spec(beta0, 0.3), ef, obs, [beta0], seed=(1, "golden", "ee", i))
        fits.append([fit.theta_hat.tolist(), fit.objective_value, fit.iterations,
                     fit.diagnostics["divergent_replicates"]])
    payload = json.dumps(fits).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "d0e356e459e70d83c157b772a31033f1bc9e44d7480084f0c9326bed640e3727")


def test_ee_closed_form_root_matches_moment_estimator():
    # with the exact conditional mean, the root of sum(y_i - x_i e^{beta dt}) = 0
    # is beta = log(sum y / sum x) / dt
    times = 0.1 * np.arange(201)
    obs = _obs(times, (31, 0))
    x, y = obs.values[:-1], obs.values[1:]
    analytic = np.log(y.sum() / x.sum()) / 0.1
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=1)
    fit = ee_solve(gbm_beta_spec(0.1, 0.2), ef, obs, [0.05], seed=0, tol=1e-10,
                   expectation_fn=lambda xs, dts, th: (xs * np.exp(th[0] * dts))[:, None])
    assert fit.converged
    assert fit.theta_hat[0] == pytest.approx(analytic, abs=1e-8)


def test_ee_mc_estimator_is_consistent_across_replications():
    # moderate noise keeps the moment estimator's finite-sample bias
    # negligible against the replication standard error
    times = 0.1 * np.arange(201)
    p = GbmParams(beta=0.1, sigma=0.05, x0=1.0)
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=8)
    spec = gbm_beta_spec(0.1, 0.05)
    estimates = []
    for rep in range(200):
        obs = _obs(times, (32, rep), p)
        fit = ee_solve(spec, ef, obs, [0.1], seed=(32, "mc", rep))
        assert fit.converged
        estimates.append(fit.theta_hat[0])
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - 0.1) < 2 * se


def test_ee_bit_identical_under_fixed_seed():
    times = 0.1 * np.arange(51)
    obs = _obs(times, (33, 0))
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=4)
    spec = gbm_beta_spec(0.1, 0.2)
    a = ee_solve(spec, ef, obs, [0.1], seed=(33, "mc"))
    b = ee_solve(spec, ef, obs, [0.1], seed=(33, "mc"))
    assert a.theta_hat[0] == b.theta_hat[0]
    assert a.objective_value == b.objective_value


def test_ee_irregular_times_match_per_pair_loop(monkeypatch):
    # the solve advances every pair in one kernel call; on irregular times it
    # must agree bit for bit with a plain loop that draws each pair's normals
    # from its own stream and advances that pair alone
    times = np.concatenate([[0.0], np.cumsum(stream(34, "gaps").uniform(0.05, 0.3, 30))])
    obs = _obs(times, (34, 0))
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=4)
    spec = gbm_beta_spec(0.1, 0.2)
    batched = ee_solve(spec, ef, obs, [0.1], seed=(34, "mc"))

    def per_pair(spec_th, *_):
        y = np.empty((len(obs) - 1, ef.J))
        for i, gap in enumerate(np.diff(times)):
            z = stream((34, "mc"), "ee", i).standard_normal((ef.J, 20))
            x, delta = np.full(ef.J, obs.values[i]), gap / 20
            for zk in z.T:
                x = x + spec_th.drift_at(x) * delta + spec_th.diffusion_at(x) * np.sqrt(delta) * zk
            y[i] = x
        return y

    monkeypatch.setattr(estimating, "euler_advance", per_pair)
    looped = ee_solve(spec, ef, obs, [0.1], seed=(34, "mc"))
    assert batched.theta_hat.tobytes() == looped.theta_hat.tobytes()
    assert batched.objective_value == looped.objective_value
    assert batched.iterations == looped.iterations > 0


def test_ee_records_full_seed_key():
    obs = _obs(0.1 * np.arange(11), (35, 0))
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=2)
    spec = gbm_beta_spec(0.1, 0.2)
    fit = ee_solve(spec, ef, obs, [0.1], seed=(35, "mc", 2))
    assert fit.seed == (35, "mc", 2)
    assert fit.to_json_dict()["seed"] == [35, "mc", 2]
    assert fit.to_json_dict()["diagnostics"]["seed_key"] == [35, "mc", 2]
    assert ee_solve(spec, ef, obs, [0.1], seed=7).diagnostics["seed_key"] == 7


def _solve_rescaled(scale, orders=(1,)):
    """ee from 0.2 at J 8, seed 5, on the GBM record (beta 0.1, sigma 0.3, 201 points at
    dt 0.05, ``stream(5, "x")``) times ``scale``."""
    obs = _obs(0.05 * np.arange(201), (5, "x"), GbmParams(beta=0.1, sigma=0.3, x0=1.0))
    obs = ObservationSet(times=obs.times, values=scale * obs.values)
    ef = EstimatingFunction(psi=raw_moment_psi(orders), J=8)
    return ee_solve(gbm_beta_spec(0.2, 0.3), ef, obs, [0.2], seed=5)


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e10, 1e12])
def test_a_rescaled_record_converges_to_the_same_root(scale):
    # at 1e12 rounding holds ||r|| near 1.2e-4, above tol, and the solve converges
    # because its last Newton step no longer moves theta
    fit = _solve_rescaled(scale)
    assert fit.converged
    assert fit.theta_hat[0] == pytest.approx(0.023885838120, abs=5e-13)
    if scale == 1e12:
        assert fit.iterations == 4


@pytest.mark.parametrize("scale, orders, error", [
    (1e306, (1,), InvalidStartError),  # the residual overflows at the start
    (1e160, (2,), EstimationFailedError),  # every replicate's y^2 overflows
])
def test_overflowing_records_end_in_a_typed_error_without_a_warning(scale, orders, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            _solve_rescaled(scale, orders)


def test_a_full_step_solve_evaluates_the_expectation_once_per_point(monkeypatch):
    # the start, then one Jacobian probe and one trial per step; the re-evaluation
    # of each accepted point and the final zero step come from the memo
    calls = []
    expectations = estimating._mc_expectations
    monkeypatch.setattr(estimating, "_mc_expectations",
                        lambda *args: calls.append(1) or expectations(*args))
    fit = _solve_rescaled(1.0)
    assert fit.converged and fit.iterations == 2
    assert len(calls) == 1 + 2 * fit.iterations == 5


def test_a_jacobian_probe_that_raises_stalls_at_the_start():
    def expectation(x, dts, theta):
        if theta[0] > 0.1:
            raise EstimationFailedError("no expectation above 0.1")
        return (x * np.exp(theta[0] * dts))[:, None]

    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=1)
    fit = ee_solve(gbm_beta_spec(0.1, 0.2), ef, _obs(0.1 * np.arange(11), (36, 0)), [0.1],
                   seed=0, expectation_fn=expectation)
    assert fit.theta_hat.tolist() == [0.1]
    assert fit.iterations == 1 and not fit.converged


def test_a_residual_free_of_theta_stalls_at_its_start():
    # the Jacobian is zero, so the Newton step raises and the solve stalls
    spec = DiffusionSpec(drift=lambda x, th: 0.1 * x, diffusion=lambda x, th: 0.2 * x,
                         theta=[0.5], x0=[1.0])
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=4)
    fit = ee_solve(spec, ef, _obs(0.1 * np.arange(11), (36, 0)), [0.5], seed=3)
    assert fit.theta_hat.tolist() == [0.5]
    assert fit.iterations == 1 and not fit.converged
