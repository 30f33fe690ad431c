import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from driftlab import bridge
from driftlab.adequacy import simulate_states_at
from driftlab.bridge import prepare_record, proposal_normals, record_logdensities, stack_size
from driftlab.densities import gbm_transition_logdensity, logsumexp, record_arrays
from driftlab.errors import DegenerateImportanceError, UnsupportedDimensionError, _fp_policy
from driftlab.likelihood import (
    BridgeDensity,
    bridge_loglikelihood,
    discrete_loglikelihood,
    mle_fit,
)
from driftlab.models import DiffusionSpec, GbmParams, OuParams, gbm_beta_spec, gbm_spec, ou_spec
from driftlab.observe import ObservationSet
from driftlab.rng import stream

P = GbmParams(beta=0.1, sigma=0.2, x0=1.0)


def logdensities(spec, dts, x, y, z):
    """Estimates of log p(dts[i], x[i], y[i]) at spec.theta, pair i driven by the
    (J, m_sub - 1) proposal normals z[i]: prepare, then evaluate."""
    return record_logdensities(spec, spec.theta, prepare_record(*record_arrays(dts, x, y), z))


def bridge_pair_logdensity(spec, dt, x, y, m_sub, j_samples, seed, pair=0):
    """The bridge estimate of one pair, with the draws of pair ``pair`` of a
    record taken from their own stream: the reference the batched pass must
    reproduce."""
    z = stream(seed, "bridge", pair).standard_normal((1, j_samples, m_sub - 1))
    return float(logdensities(spec, [dt], [x], [y], z)[0])


def test_bm_one_interior_point_is_exact():
    # mu = 0, constant sigma: the bridge proposal is the true conditional law,
    # so every importance weight equals the exact transition density
    bm = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                       diffusion=lambda x, th: 0.7 * np.ones_like(x),
                       theta=[0.0], x0=[0.0])
    est = bridge_pair_logdensity(bm, 0.5, 0.1, 0.4, m_sub=2, j_samples=10_000, seed=5)
    exact = stats.norm.logpdf(0.4, 0.1, 0.7 * np.sqrt(0.5))
    assert est == pytest.approx(exact, abs=1e-2 * abs(exact))


def test_gbm_pairs_within_five_percent():
    times = 0.5 * np.arange(51)
    vals = simulate_states_at(P, times, stream(6, "path"))[:, 0]
    spec = gbm_spec(P)
    rel = []
    for i in range(50):
        est = np.exp(bridge_pair_logdensity(spec, 0.5, vals[i], vals[i + 1],
                                            m_sub=8, j_samples=200, seed=6, pair=i))
        exact = np.exp(gbm_transition_logdensity(P, 0.5, vals[i], vals[i + 1]))
        rel.append(abs(est - exact) / exact)
    assert np.mean(rel) <= 0.05


def test_m_sub_refinement_moves_toward_exact():
    spec = gbm_spec(P)
    exact = np.exp(gbm_transition_logdensity(P, 1.0, 1.0, 1.1))
    gaps = []
    for m in (2, 4, 8, 16):
        est = np.exp(bridge_pair_logdensity(spec, 1.0, 1.0, 1.1,
                                            m_sub=m, j_samples=20_000, seed=8))
        gaps.append(abs(est - exact))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_loglikelihood_sums_pairs_deterministically():
    times = 0.5 * np.arange(6)
    obs = ObservationSet(times=times,
                         values=simulate_states_at(P, times, stream(9, "p"))[:, 0])
    spec = gbm_spec(P)
    a = bridge_loglikelihood(spec, obs, m_sub=4, j_samples=50, seed=3)
    b = bridge_loglikelihood(spec, obs, m_sub=4, j_samples=50, seed=3)
    assert a == b
    total = sum(
        bridge_pair_logdensity(spec, 0.5, obs.values[i], obs.values[i + 1],
                               m_sub=4, j_samples=50, seed=3, pair=i)
        for i in range(5)
    )
    assert a == pytest.approx(total, rel=1e-14)


def test_bridge_density_normalizes_over_terminal_state():
    # trapezoid mass of the estimated density within 5% at j_samples = 1e4
    spec = gbm_spec(P)
    y = np.linspace(0.4, 2.6, 56)
    dens = np.array([
        np.exp(bridge_pair_logdensity(spec, 0.5, 1.0, float(v),
                                      m_sub=8, j_samples=10_000, seed=(12, i)))
        for i, v in enumerate(y)
    ])
    mass = np.trapezoid(dens, y)
    assert abs(mass - 1.0) <= 0.05


def test_degenerate_weights_raise():
    # sigma vanishes above 5, so only pair 3, which starts there, has no
    # finite importance weight
    frozen_above_5 = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                                   diffusion=lambda x, th: np.where(x > 5.0, 0.0, 1.0),
                                   theta=[0.0], x0=[0.0])
    td = BridgeDensity(frozen_above_5, m_sub=4, j_samples=10, seed=0)
    with pytest.raises(DegenerateImportanceError) as err:
        td.logdensities([0.5] * 4, [0.0, 0.1, 0.2, 10.0], [0.1, 0.2, 0.3, 11.0])
    assert err.value.pair == 3


def test_multidimensional_rejected():
    spec = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                         diffusion=lambda x, th: np.ones_like(x),
                         theta=[0.0], x0=[0.0, 0.0], state_dim=2)
    obs = ObservationSet(times=[0.0, 1.0], values=np.zeros((2, 2)))
    with pytest.raises(UnsupportedDimensionError):
        bridge_loglikelihood(spec, obs, m_sub=2, j_samples=10, seed=0)


def test_validation():
    spec = gbm_spec(P)
    with pytest.raises(ValueError):
        BridgeDensity(spec, m_sub=1, j_samples=10, seed=0).logdensities([0.5], [1.0], [1.1])
    with pytest.raises(ValueError):
        BridgeDensity(spec, m_sub=4, j_samples=0, seed=0).logdensities([0.5], [1.0], [1.1])


@pytest.mark.parametrize("dt", [0.0, -0.5])
def test_non_positive_dt_rejected_before_any_draw(monkeypatch, dt):
    def no_draws(*args):
        raise AssertionError("proposal normals drawn for an invalid record")

    monkeypatch.setattr(bridge, "proposal_normals", no_draws)
    with pytest.raises(ValueError, match="dt must be positive"):
        BridgeDensity(gbm_spec(P), m_sub=4, j_samples=10, seed=0).logdensities([dt], [1.0], [1.1])
    with pytest.raises(ValueError, match="dt must be positive"):
        logdensities(gbm_spec(P), [dt], [1.0], [1.1], np.zeros((1, 10, 3)))


@st.composite
def irregular_gbm_pairs(draw):
    """(dts, x, y) for the consecutive pairs of a positive record on random
    irregular times, at least two pairs."""
    gaps = np.array(draw(st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=40)))
    values = np.array(draw(st.lists(st.floats(0.05, 20.0), min_size=len(gaps) + 1,
                                    max_size=len(gaps) + 1)))
    return gaps, values[:-1], values[1:]


@settings(max_examples=50)
@given(gaps=st.lists(st.floats(0.01, 2.0), min_size=2, max_size=40), data=st.data(),
       mu=st.floats(-1.0, 1.0), sigma=st.floats(0.1, 2.0), m_sub=st.integers(2, 16),
       j_samples=st.integers(1, 50), seed=st.integers(0, 2**32))
def test_arithmetic_bm_bridge_equals_closed_form(gaps, data, mu, sigma, m_sub, j_samples, seed):
    # constant drift and sigma: the bridge proposal is the exact conditional
    # law and each Euler substep density is exact, so every importance weight
    # equals the transition density whatever m_sub, J and the draws.  Pairs
    # start in [-1, 1] and end within 3 sd of their mean, so rounding stays
    # small against the substep sd; atol covers exact values near zero.
    dts = np.array(gaps)
    n = len(dts)
    x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    z = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    y = x + mu * dts + sigma * np.sqrt(dts) * z
    abm = DiffusionSpec(drift=lambda u, th: th[0] * np.ones_like(u),
                        diffusion=lambda u, th: th[1] * np.ones_like(u),
                        theta=[mu, sigma], x0=[0.0])
    est = BridgeDensity(abm, m_sub=m_sub, j_samples=j_samples, seed=seed).logdensities(dts, x, y)
    exact = stats.norm.logpdf(y, x + mu * dts, sigma * np.sqrt(dts))
    np.testing.assert_allclose(est, exact, rtol=1e-12, atol=1e-12)


@settings(max_examples=50)
@given(pairs=irregular_gbm_pairs(), beta=st.floats(-1.0, 1.0), sigma=st.floats(0.05, 2.0),
       m_sub=st.integers(2, 16), j_samples=st.integers(1, 50), seed=st.integers(0, 2**32))
def test_all_pairs_in_one_call_equal_per_pair_loop(pairs, beta, sigma, m_sub, j_samples, seed):
    # the batched pass gives pair i the draws keyed (seed, "bridge", i), as
    # the one-pair function does, and rounds every term the same way
    dts, x, y = pairs
    spec = gbm_spec(GbmParams(beta=beta, sigma=sigma))
    batched = BridgeDensity(spec, m_sub, j_samples, seed).logdensities(dts, x, y)
    looped = np.array([bridge_pair_logdensity(spec, dts[i], x[i], y[i], m_sub, j_samples,
                                              seed, pair=i) for i in range(len(dts))])
    assert np.array_equal(batched, looped)


def _gbm_record(n_pairs, key):
    times = np.cumsum(np.concatenate([[0.0], 0.2 + 0.3 * stream(key, "dt").random(n_pairs)]))
    states = simulate_states_at(P, times, stream(key, "x"))[:, 0]
    return ObservationSet(times=times, values=states)


def test_bridge_fit_draws_its_noise_once(monkeypatch):
    obs = _gbm_record(6, 41)
    calls = []
    draw = bridge.replicate_normals

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(bridge, "replicate_normals", counting)
    td = BridgeDensity(gbm_spec(P), m_sub=4, j_samples=50, seed=(7, "fit"))
    fit = mle_fit(td, obs, td.theta)
    assert fit.converged and fit.standard_errors is not None
    assert len(calls) == 1  # Newton probes, line search and Hessian probes share one draw

    # the frozen draws are the ones a fresh evaluation draws
    at_fit = replace(td, spec=td.spec.with_theta(fit.theta_hat))
    assert fit.objective_value == discrete_loglikelihood(at_fit, obs)

    # and redrawing on every evaluation gives the same fit, byte for byte
    evaluations = []

    def redrawing(self, dts, x, y):
        def at(theta):
            evaluations.append(theta)
            return record_logdensities(self.spec, np.asarray(theta), prepare_record(
                dts, x, y, proposal_normals(len(dts), 4, 50, self.seed)))
        return at

    monkeypatch.setattr(BridgeDensity, "record_terms", redrawing)
    calls.clear()
    redrawn = mle_fit(td, obs, td.theta)
    assert fit.theta_hat.tobytes() == redrawn.theta_hat.tobytes()
    assert fit.standard_errors.tobytes() == redrawn.standard_errors.tobytes()
    # each of the redrawn fit's evaluations drew anew: the start, each Newton
    # step's one stack of probes and its trial, and the standard errors' centre and stack
    assert len(calls) == len(evaluations)
    assert len(evaluations) >= 2 * redrawn.iterations + 3


def test_frozen_draws_follow_the_record():
    # each record's terms close over that record's own draws: a second record
    # of another length does not reuse the first record's noise
    td = BridgeDensity(gbm_spec(P), m_sub=3, j_samples=20, seed=2)
    for obs in (_gbm_record(5, 1), _gbm_record(8, 2), _gbm_record(5, 1)):
        dts, x, y = obs.pairs()
        looped = [bridge_pair_logdensity(td.spec, dts[i], x[i], y[i], 3, 20, 2, pair=i)
                  for i in range(len(dts))]
        assert np.array_equal(td.record_terms(dts, x, y)(td.theta), looped)


def test_bridge_loglikelihood_is_the_bridge_density_loglikelihood():
    obs = _gbm_record(40, 3)
    td = BridgeDensity(gbm_spec(P), m_sub=6, j_samples=30, seed=(4, "ll"))
    assert bridge_loglikelihood(td.spec, obs, 6, 30, (4, "ll")) == discrete_loglikelihood(td, obs)


def _two_density_log_weights(spec, dts, x, y, z):
    """Textbook log importance weights, (n_pairs, J): each substep adds the
    Euler density of the proposed point and subtracts the proposal density,
    both written out in full, and the last step adds the Euler density of y.
    Also returns the sum of the terms' magnitudes, the scale of its rounding."""
    m_sub = z.shape[2] + 1
    dts, y = dts[:, None], y[:, None]
    delta = dts / m_sub
    u = np.repeat(x[:, None], z.shape[1], axis=1)
    logw, scale = np.zeros(u.shape), np.zeros(u.shape)
    for k in range(1, m_sub):
        frac = delta / (dts - (k - 1) * delta)
        sig, mu = spec.diffusion(u, spec.theta), spec.drift(u, spec.theta)
        prop_mean, prop_var = u + (y - u) * frac, sig**2 * delta * (1.0 - frac)
        u_next = prop_mean + np.sqrt(prop_var) * z[:, :, k - 1]
        euler = stats.norm.logpdf(u_next, u + mu * delta, np.sqrt(sig**2 * delta))
        proposal = stats.norm.logpdf(u_next, prop_mean, np.sqrt(prop_var))
        logw, scale = logw + euler - proposal, scale + np.abs(euler) + np.abs(proposal)
        u = u_next
    sig, mu = spec.diffusion(u, spec.theta), spec.drift(u, spec.theta)
    last = stats.norm.logpdf(y, u + mu * delta, np.sqrt(sig**2 * delta))
    return logw + last, scale + np.abs(last)


@settings(max_examples=50, derandomize=True)
@given(pairs=irregular_gbm_pairs(), beta=st.floats(-1.0, 1.0), sigma=st.floats(0.05, 2.0),
       m_sub=st.integers(2, 16), j_samples=st.integers(1, 50), seed=st.integers(0, 2**32))
def test_closed_form_weights_equal_the_two_density_formula(pairs, beta, sigma, m_sub,
                                                             j_samples, seed):
    # the proposal density cancels against the Euler one up to terms free of
    # theta; with one draw per call the estimate is that draw's log weight.
    # A weight is the difference of terms of order log(sigma^2 dt), so it is
    # compared relative to their magnitudes, for every draw that carries
    # weight: within 36 nats (e^-36 ~ 2e-16) of its pair's best.  Draws far
    # below that, on paths through u ~ 0 where sigma(u) = sigma u amplifies
    # each rounding, differ by more and add nothing to the estimate.
    dts, x, y = pairs
    spec = gbm_spec(GbmParams(beta=beta, sigma=sigma))
    z = proposal_normals(len(dts), m_sub, j_samples, seed)
    reference, scale = _two_density_log_weights(spec, dts, x, y, z)
    weights = np.column_stack([logdensities(spec, dts, x, y, z[:, j:j + 1])
                               for j in range(j_samples)])
    carrying = reference >= reference.max(axis=1, keepdims=True) - 36.0
    assert np.all(np.abs(weights - reference)[carrying] <= 1e-12 * scale[carrying])
    np.testing.assert_allclose(logdensities(spec, dts, x, y, z),
                               logsumexp(reference, axis=1) - np.log(j_samples),
                               rtol=1e-12, atol=1e-12)


def test_sigma_vanishing_mid_path_names_its_pair():
    # sigma is 0 on (4, 6) only: pair 2 runs from 0 to 10, where sigma is 1,
    # so its weights can only collapse mid-path, at the middle of its four
    # substeps (mean 5, sd about 0.35); the other pairs stay clear of the band
    banded = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                           diffusion=lambda x, th: np.where((x > 4.0) & (x < 6.0), 0.0, 1.0),
                           theta=[0.0], x0=[0.0])
    dts, x, y = [0.5] * 4, [0.0, 1.0, 0.0, 8.0], [0.5, 1.2, 10.0, 8.5]
    td = BridgeDensity(banded, m_sub=4, j_samples=10, seed=0)
    with pytest.raises(DegenerateImportanceError) as err:
        td.logdensities(dts, x, y)
    assert err.value.pair == 2
    assert np.all(np.isfinite(td.logdensities(dts[:2] + dts[3:], x[:2] + x[3:],
                                              y[:2] + y[3:])))


def test_bridge_fit_prepares_its_record_once(monkeypatch):
    calls = {"prepare": 0, "evaluate": 0}
    prepare, evaluate = bridge.prepare_record, bridge.record_logdensities

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(bridge, "prepare_record", counted("prepare", prepare))
    monkeypatch.setattr(bridge, "record_logdensities", counted("evaluate", evaluate))
    td = BridgeDensity(gbm_spec(P), m_sub=4, j_samples=50, seed=(7, "fit"))
    fit = mle_fit(td, _gbm_record(6, 41), td.theta)
    assert fit.converged and fit.standard_errors is not None
    assert fit.diagnostics["optimizer"] == "newton"
    # the start, each Newton step's stack of probes and its trial, and the
    # standard errors' centre and stack all evaluate the one prepared record
    assert calls["prepare"] == 1
    assert calls["evaluate"] >= 2 * fit.iterations + 3


@pytest.mark.parametrize("sigma", [1e-200, 1e200])
def test_extreme_sigma_raises_no_numpy_warning(sigma):
    # the theta pass squares sigma and divides by it: overflow, underflow and
    # division by zero end in a typed error or a log-density, never a warning
    spec = gbm_spec(GbmParams(beta=0.1, sigma=sigma))
    obs = _gbm_record(5, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            terms = BridgeDensity(spec, m_sub=4, j_samples=20).logdensities(*obs.pairs())
        except DegenerateImportanceError:
            return
    assert terms.shape == (5,)


def test_record_terms_take_theta_as_any_array_like():
    # a one-parameter spec's theta may come as a scalar or a list, as for the
    # other densities
    at = BridgeDensity(gbm_beta_spec(0.1, 0.2), m_sub=4, j_samples=20).record_terms(
        *_gbm_record(5, 3).pairs())
    assert np.array_equal(at(0.1), at(np.array([0.1])))
    assert np.array_equal(at([0.1]), at(np.array([0.1])))


# A Newton step's probes share one stacked pass: theta enters drift and
# diffusion as columns (k, m, 1, 1), every substep is one (m, n_pairs, J) pass

STACKED_SPECS = {  # spec, index of the theta entry that scales sigma (None: theta-free)
    "gbm": (gbm_spec(P), 1),
    "ou": (ou_spec(OuParams(gamma=0.8, beta_bar=1.0, sigma=0.3)), 2),
    "theta-free": (DiffusionSpec(drift=lambda x, th: -0.3 * x,
                                 diffusion=lambda x, th: 0.7 * np.ones_like(x),
                                 theta=[0.0], x0=[1.0]), None),
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(STACKED_SPECS)), m_sub=st.sampled_from([2, 4, 8]),
       j_samples=st.sampled_from([1, 20, 200]), n_pairs=st.integers(1, 6),
       irregular=st.booleans(), m=st.integers(1, 12), key=st.integers(0, 2**32),
       data=st.data())
def test_stacked_terms_equal_the_per_theta_terms(name, m_sub, j_samples, n_pairs, irregular,
                                                 m, key, data):
    # each row of a stack, chunked by the record's stack size, carries the
    # bytes of its own 1-D pass; a row with sigma 1e-200 (no weight survives)
    # or NaN comes out -inf where the 1-D pass raises, and leaves its
    # neighbours as they are
    spec, sigma_at = STACKED_SPECS[name]
    rng = stream(key, "stacked")
    dts = rng.uniform(0.2, 0.8, n_pairs) if irregular else np.full(n_pairs, 0.5)
    x, y = rng.uniform(0.5, 2.0, (2, n_pairs))
    thetas = spec.theta * (1.0 + 0.1 * rng.standard_normal((m, len(spec.theta))))
    special = []
    if sigma_at is not None:
        special = data.draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True))
        for row, sigma in zip(special, (1e-200, np.nan)):
            thetas[row, sigma_at] = sigma
    at = BridgeDensity(spec, m_sub, j_samples, seed=key).record_terms(dts, x, y)
    with _fp_policy():
        stacked = at(thetas)
        assert stacked.shape == (m, n_pairs)
        for row, theta in enumerate(thetas):
            try:
                assert stacked[row].tobytes() == at(theta).tobytes()
            except DegenerateImportanceError as err:
                assert row in special and stacked[row, err.pair] == -np.inf
    assert not np.any(np.isnan(stacked))


def test_stack_size_follows_the_record_and_the_spec():
    record = prepare_record(np.full(3, 0.5), np.ones(3), np.ones(3),
                            proposal_normals(3, 8, 200, 0))
    assert stack_size(gbm_spec(P), record) == 8_000 // (3 * 200)
    big = prepare_record(np.full(50, 0.5), np.ones(50), np.ones(50),
                         proposal_normals(50, 8, 200, 0))
    assert stack_size(gbm_spec(P), big) == 1
    # a spec that takes theta entries as Python floats, or mixes the rows of a
    # stack, is called with one 1-D theta at a time
    as_float = DiffusionSpec(drift=lambda x, th: float(th[0]) * x,
                             diffusion=lambda x, th: th[1] * x, theta=[0.1, 0.2], x0=[1.0])
    mixing = DiffusionSpec(drift=lambda x, th: np.max(th[0]) * x,
                           diffusion=lambda x, th: th[1] * x, theta=[0.1, 0.2], x0=[1.0])
    assert stack_size(as_float, record) == stack_size(mixing, record) == 1


def test_a_spec_of_python_floats_fits_as_the_broadcasting_spec():
    # float(th[0]) cannot take a column of thetas: such a spec runs with m = 1,
    # a 1-D theta per pass, and fits byte for byte as the same model written
    # to broadcast, whose probes go in stacks
    shapes = []

    def drift(x, th):
        shapes.append(np.shape(th))
        return float(th[0]) * x

    as_float = DiffusionSpec(drift=drift, diffusion=lambda x, th: float(th[1]) * x,
                             theta=[P.beta, P.sigma], x0=[1.0], positive=(False, True))
    obs = _gbm_record(6, 41)
    fits = [mle_fit(BridgeDensity(spec, m_sub=4, j_samples=50, seed=3), obs, spec.theta)
            for spec in (as_float, gbm_spec(P))]
    assert fits[0].converged and fits[0].diagnostics["optimizer"] == "newton"
    # the record's check tried columns once; every evaluation took a 1-D theta
    assert shapes.count((2, 2, 1, 1)) == 1 and set(shapes) == {(2,), (2, 2, 1, 1)}
    assert fits[0].theta_hat.tobytes() == fits[1].theta_hat.tobytes()
    assert fits[0].standard_errors.tobytes() == fits[1].standard_errors.tobytes()
    assert (fits[0].objective_value, fits[0].iterations) == (fits[1].objective_value,
                                                            fits[1].iterations)


def test_a_newton_step_evaluates_its_probes_in_one_call(monkeypatch):
    # one call of the terms function (and one stacked pass) per step for the
    # 2k + 2k(k - 1) probes, one per line-search trial and the start, and for
    # the standard errors one 1-D call at the estimate and one stack
    calls, passes = [], []
    record_terms, evaluate = BridgeDensity.record_terms, bridge.record_logdensities

    def counted_terms(self, dts, x, y):
        at = record_terms(self, dts, x, y)
        return lambda theta: calls.append(np.shape(theta)) or at(theta)

    def counted_pass(spec, theta, record):
        passes.append(theta.shape)
        return evaluate(spec, theta, record)

    monkeypatch.setattr(BridgeDensity, "record_terms", counted_terms)
    monkeypatch.setattr(bridge, "record_logdensities", counted_pass)
    td = BridgeDensity(gbm_spec(P), m_sub=4, j_samples=50, seed=(7, "fit"))
    fit = mle_fit(td, _gbm_record(6, 41), td.theta)
    assert fit.converged and fit.diagnostics["optimizer"] == "newton"
    stacks = [shape for shape in calls if len(shape) == 2]
    assert stacks == [(8, 2)] * (fit.iterations + 1)
    assert [shape for shape in passes if len(shape) == 2] == stacks
    trials = len(calls) - len(stacks) - 2  # less the start and the standard errors' centre
    assert trials >= fit.iterations and all(shape == (2,) for shape in calls
                                            if len(shape) != 2)
