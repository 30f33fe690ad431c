import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftlab import densities
from driftlab.adequacy import simulate_states_at
from driftlab.densities import gbm_transition_logdensity
from driftlab.errors import InvalidStartError, NonFiniteTermError
from driftlab.likelihood import (
    EulerDensity,
    FokkerPlanckDensity,
    GbmDensity,
    OuDensity,
    _hessian_stderr,
    discrete_loglikelihood,
    mle_fit,
)
from driftlab.models import DiffusionSpec, GbmParams, OuParams, gbm_spec, ou_spec
from driftlab.observe import ObservationSet
from driftlab.rng import stream

P_GBM = GbmParams(beta=0.1, sigma=0.2, x0=1.0)


def _gbm_obs(p, times, key):
    return ObservationSet(times=times, values=simulate_states_at(p, times, stream(*key))[:, 0])


def test_single_pair_equals_density():
    obs = ObservationSet(times=[0.0, 0.5], values=[1.0, 1.2])
    td = GbmDensity(P_GBM)
    assert discrete_loglikelihood(td, obs) == pytest.approx(
        gbm_transition_logdensity(P_GBM, 0.5, 1.0, 1.2), rel=1e-14)


def test_true_theta_beats_perturbed_on_average():
    times = 0.1 * np.arange(101)
    td_true = GbmDensity(P_GBM)
    td_wrong = GbmDensity(GbmParams(beta=0.6, sigma=0.2, x0=1.0))
    diffs = []
    for rep in range(100):
        obs = _gbm_obs(P_GBM, times, (1001, rep))
        diffs.append(discrete_loglikelihood(td_true, obs)
                     - discrete_loglikelihood(td_wrong, obs))
    assert np.mean(diffs) > 0


def test_time_reversal_invariance_for_bm():
    # Brownian motion with constant sigma: Gaussian increments are symmetric
    bm = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                       diffusion=lambda x, th: 0.7 * np.ones_like(x),
                       theta=[0.0], x0=[0.0])
    td = EulerDensity(bm)
    times = np.array([0.0, 0.3, 1.1, 1.4, 2.0])
    values = np.array([0.0, -0.2, 0.5, 0.1, 0.4])
    fwd = ObservationSet(times=times, values=values)
    rev = ObservationSet(times=times[-1] - times[::-1], values=values[::-1])
    assert discrete_loglikelihood(td, fwd) == pytest.approx(
        discrete_loglikelihood(td, rev), rel=1e-12)


POSITIVE = st.floats(0.05, 2.0)


@st.composite
def irregular_records(draw, low, high):
    """An ObservationSet on random strictly increasing, irregularly spaced times."""
    gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=40))
    values = draw(st.lists(st.floats(low, high), min_size=len(gaps) + 1,
                           max_size=len(gaps) + 1))
    return ObservationSet(times=np.concatenate([[0.0], np.cumsum(gaps)]), values=values)


def _assert_equals_per_pair_loop(td, obs, pair_logdensity):
    # length-1 slices, not 0-d scalars: numpy's scalar log and its array loop
    # can differ in the last bit, so both sides must take the array path
    dts, x = np.diff(obs.times), obs.values
    looped = np.concatenate([pair_logdensity(dts[i:i + 1], x[i:i + 1], x[i + 1:i + 2])
                             for i in range(len(dts))])
    assert np.array_equal(td.pair_logdensities(obs), looped)


@settings(max_examples=40)
@given(obs=irregular_records(0.05, 20.0), beta=st.floats(-1.0, 1.0), sigma=POSITIVE)
def test_gbm_pairs_in_one_call_equal_per_pair_loop(obs, beta, sigma):
    p = GbmParams(beta=beta, sigma=sigma)
    _assert_equals_per_pair_loop(GbmDensity(p), obs, lambda dt, x, y:
                                 densities.gbm_transition_logdensity(p, dt, x, y))


@settings(max_examples=40)
@given(obs=irregular_records(-5.0, 5.0), gamma=POSITIVE, beta_bar=st.floats(-2.0, 2.0),
       sigma=POSITIVE)
def test_ou_and_euler_pairs_in_one_call_equal_per_pair_loop(obs, gamma, beta_bar, sigma):
    p = OuParams(gamma=gamma, beta_bar=beta_bar, sigma=sigma)
    _assert_equals_per_pair_loop(OuDensity(p), obs, lambda dt, x, y:
                                 densities.ou_transition_logdensity(p, dt, x, y))
    spec = ou_spec(p)
    _assert_equals_per_pair_loop(EulerDensity(spec), obs, lambda dt, x, y:
                                 densities.euler_transition_logdensity(spec, dt, x, y))


def test_dt_array_with_a_zero_entry_rejected():
    dts, x, y = np.array([0.5, 0.0, 0.2]), np.ones(3), np.full(3, 1.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        densities.gbm_transition_logdensity(P_GBM, dts, x, y)
    with pytest.raises(ValueError, match="dt must be positive"):
        densities.ou_transition_logdensity(OuParams(1.0, 0.0, 0.5), dts, x, y)
    with pytest.raises(ValueError, match="dt must be positive"):
        densities.euler_transition_logdensity(gbm_spec(P_GBM), dts, x, y)


def test_nonfinite_term_reports_pair():
    # the Euler variance sigma(x)^2 dt underflows to zero at x = 1e-300,
    # making the second transition term non-finite
    obs = ObservationSet(times=[0.0, 0.5, 1.0], values=[1.0, 1e-300, 1.0])
    td = EulerDensity(gbm_spec(P_GBM))
    with pytest.raises(NonFiniteTermError) as err:
        discrete_loglikelihood(td, obs)
    assert err.value.pair == 1


def test_mle_matches_closed_form_with_fixed_sigma():
    times = 0.1 * np.arange(501)
    obs = _gbm_obs(P_GBM, times, (77, 0))
    r = np.diff(np.log(obs.values))
    beta_closed = np.mean(r) / 0.1 + 0.5 * P_GBM.sigma**2
    td = GbmDensity(P_GBM, free=("beta",))
    fit = mle_fit(td, obs, [0.3], compute_stderr=False)
    assert fit.converged
    assert fit.theta_hat[0] == pytest.approx(beta_closed, abs=1e-6)


def test_mle_from_optimum_stays_there():
    times = 0.1 * np.arange(301)
    obs = _gbm_obs(P_GBM, times, (78, 0))
    td = GbmDensity(P_GBM, free=("beta",))
    first = mle_fit(td, obs, [0.1], compute_stderr=False)
    again = mle_fit(td, obs, first.theta_hat, compute_stderr=False)
    assert again.converged
    assert again.theta_hat[0] == pytest.approx(first.theta_hat[0], abs=1e-6)
    assert again.iterations < first.iterations


def test_mle_joint_beta_sigma_recovers_truth_roughly():
    times = 0.1 * np.arange(501)
    obs = _gbm_obs(P_GBM, times, (79, 0))
    fit = mle_fit(GbmDensity(P_GBM), obs, [0.2, 0.4])
    assert fit.converged
    assert fit.standard_errors is not None
    assert np.all(np.abs(fit.theta_hat - [0.1, 0.2]) <= 4 * fit.standard_errors)


def test_mle_invalid_start():
    obs = ObservationSet(times=[0.0, 0.5], values=[1.0, 1.2])
    td = GbmDensity(P_GBM)
    with pytest.raises((InvalidStartError, ValueError)):
        mle_fit(td, obs, [0.1, -0.5])  # negative sigma start


def test_ou_density_fit_smoke():
    p = OuParams(gamma=1.0, beta_bar=0.4, sigma=0.5, b0=0.0)
    times = 0.2 * np.arange(301)
    obs = ObservationSet(times=times, values=simulate_states_at(p, times, stream(5, 5))[:, 0])
    fit = mle_fit(OuDensity(p), obs, [1.3, 0.2, 0.4], compute_stderr=False)
    assert fit.converged
    assert fit.theta_hat[0] == pytest.approx(1.0, abs=0.5)
    assert fit.theta_hat[2] == pytest.approx(0.5, abs=0.1)


def test_mle_asymptotically_centered():
    # bias of beta_hat over 200 datasets of N = 1000 stays below 2 standard
    # errors of the replication mean
    times = 0.1 * np.arange(1001)
    td = GbmDensity(P_GBM, free=("beta",))
    estimates = []
    for rep in range(200):
        obs = _gbm_obs(P_GBM, times, (88, rep))
        fit = mle_fit(td, obs, [0.1], compute_stderr=False)
        estimates.append(fit.theta_hat[0])
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - 0.1) < 2 * se


def test_log_scale_stderr_matches_natural_scale_curvature():
    # a Gaussian log-likelihood in theta with sd 1e-5 around 5e-5: the natural
    # probe (step 1e-4) would leave theta > 0, the log-scale probe plus the
    # delta method still recovers the sd
    def loglik(th):
        assert th[0] > 0
        return -0.5 * ((th[0] - 5e-5) / 1e-5) ** 2

    se, log_scaled = _hessian_stderr(loglik, np.array([5e-5]), (True,))
    assert log_scaled.tolist() == [True]
    assert se[0] == pytest.approx(1e-5, rel=1e-3)


def test_mle_tiny_sigma_returns_standard_errors():
    times = 0.1 * np.arange(21)
    p = GbmParams(beta=0.1, sigma=5e-5, x0=1.0)
    obs = _gbm_obs(p, times, (90, 0))
    fit = mle_fit(GbmDensity(p), obs, [0.1, 5e-5])
    sigma_hat = fit.theta_hat[1]
    assert fit.converged and sigma_hat < 1e-4
    assert fit.diagnostics["stderr_log_scale"] == [False, True]
    # Gaussian-increment theory: se(beta) = sigma / sqrt(T), se(sigma) = sigma / sqrt(2 n)
    assert fit.standard_errors[0] == pytest.approx(sigma_hat / np.sqrt(2.0), rel=0.05)
    assert fit.standard_errors[1] == pytest.approx(sigma_hat / np.sqrt(40.0), rel=0.05)


def test_fit_result_json_schema(tmp_path):
    times = 0.1 * np.arange(101)
    obs = _gbm_obs(P_GBM, times, (89, 0))
    fit = mle_fit(GbmDensity(P_GBM), obs, [0.1, 0.2], seed=5)
    d = fit.to_json_dict()
    assert set(d) == {"theta_hat", "objective", "converged", "iterations",
                      "seed", "stderr", "diagnostics"}
    assert d["seed"] == 5
    assert d["diagnostics"] == {"optimizer": "nelder-mead", "kind": "closed_form_gbm"}
    from driftlab.ioutil import write_json
    from driftlab.results import FitResult
    write_json(str(tmp_path / "fit.json"), d)
    back = FitResult.from_json_dict(json.loads((tmp_path / "fit.json").read_text()))
    assert np.array_equal(back.theta_hat, fit.theta_hat)
    assert back.converged == fit.converged


def test_fit_result_with_tuple_seed_key_serialises(tmp_path):
    obs = _gbm_obs(P_GBM, 0.1 * np.arange(21), (88, 0))
    d = mle_fit(GbmDensity(P_GBM), obs, [0.1, 0.2], seed=(3, "x")).to_json_dict()
    from driftlab.ioutil import write_json
    write_json(str(tmp_path / "fit.json"), d)
    assert json.loads((tmp_path / "fit.json").read_text())["seed"] == [3, "x"]


def test_fokker_planck_density_close_to_closed_form_loglik():
    times = 0.5 * np.arange(6)
    obs = _gbm_obs(P_GBM, times, (80, 0))
    exact = discrete_loglikelihood(GbmDensity(P_GBM), obs)
    fp = FokkerPlanckDensity(gbm_spec(P_GBM), y_min=0.05, y_max=4.0,
                             n_cells=400, n_time_steps=100)
    approx = discrete_loglikelihood(fp, obs)
    assert approx == pytest.approx(exact, abs=0.05)
