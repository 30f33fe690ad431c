import json
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from driftlab import bridge, densities, likelihood
from driftlab.adequacy import simulate_states_at
from driftlab.cli import _ou_init_from_data
from driftlab.densities import gbm_transition_logdensity
from driftlab.errors import (
    DegenerateDensityError,
    DegenerateImportanceError,
    InvalidGridError,
    InvalidStartError,
    NonFiniteTermError,
    UnsupportedDimensionError,
    WeightSingularityError,
    _fp_policy,
)
from driftlab.likelihood import (
    BridgeDensity,
    EulerDensity,
    FokkerPlanckDensity,
    GbmDensity,
    OuDensity,
    TransitionDensity,
    _central_differences,
    _loglik_at,
    _logliks,
    _score_and_fisher,
    _working_differences,
    descend,
    discrete_loglikelihood,
    fisher_step,
    from_working,
    minimize_simplex,
    mle_fit,
    newton_step,
    to_working,
)
from driftlab.models import (
    DiffusionSpec,
    GbmParams,
    OuParams,
    gbm_beta_spec,
    gbm_spec,
    ou_spec,
)
from driftlab.observe import ObservationSet
from driftlab.rng import stream

P_GBM = GbmParams(beta=0.1, sigma=0.2, x0=1.0)


def ou_record_logdensity(p, record):
    return densities.normal_logpdf(*densities.ou_moments(p, record))


def euler_record_logdensity(spec, record):
    return densities.normal_logpdf(*densities.euler_moments(spec, record))


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
    assert np.array_equal(td.logdensities(*obs.pairs()), looped)


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
    _assert_equals_per_pair_loop(OuDensity(p), obs, lambda *pair:
                                 ou_record_logdensity(p, densities.record_arrays(*pair)))
    spec = ou_spec(p)
    _assert_equals_per_pair_loop(EulerDensity(spec), obs, lambda *pair: (
        euler_record_logdensity(spec, densities.record_arrays(*pair))))


def test_dt_array_with_a_zero_entry_rejected():
    dts, x, y = np.array([0.5, 0.0, 0.2]), np.ones(3), np.full(3, 1.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        densities.gbm_transition_logdensity(P_GBM, dts, x, y)
    with pytest.raises(ValueError, match="dt must be positive"):
        OuDensity(OuParams(1.0, 0.0, 0.5)).logdensities(dts, x, y)
    with pytest.raises(ValueError, match="dt must be positive"):
        EulerDensity(gbm_spec(P_GBM)).logdensities(dts, x, y)


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
    # a Gaussian log-likelihood in theta with sd 1e-5 around 5e-5: a natural-scale
    # probe of step 1e-4 would leave theta > 0, the working-scale (log) probe plus
    # the delta method still recovers the sd
    def loglik(th):
        assert th[0] > 0
        return -0.5 * ((th[0] - 5e-5) / 1e-5) ** 2

    z_hat = np.log([5e-5])
    _, hess = _working_differences(lambda zs: [loglik(np.exp(z)) for z in zs], z_hat, 0.0)
    se = 5e-5 * np.sqrt(-1.0 / hess[0, 0])  # the delta method, as mle_fit applies it
    assert se == pytest.approx(1e-5, rel=1e-3)


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
    assert d["diagnostics"] == {"optimizer": "fisher-scoring", "kind": "closed_form_gbm",
                                "stderr_log_scale": [False, True]}
    from driftlab.ioutil import write_json
    write_json(str(tmp_path / "fit.json"), d)
    back = json.loads((tmp_path / "fit.json").read_text())
    assert np.array_equal(back["theta_hat"], fit.theta_hat)
    assert back["converged"] == fit.converged


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


@st.composite
def records(draw, low, high):
    """A record on regular times (0.1 * arange) or on irregular ones."""
    if draw(st.booleans()):
        return draw(irregular_records(low, high))
    values = draw(st.lists(st.floats(low, high), min_size=2, max_size=40))
    return ObservationSet(times=0.1 * np.arange(len(values)), values=values)


# log-scale parameters: moderate, or at the ends of the working scale, where
# sigma^2 dt underflows to 0 or nearly overflows (a python float sigma^2
# overflows past exp(354))
LOG_POSITIVE = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-745.0, -700.0, 300.0, 350.0]))


def _free_theta(draw, names, positive):
    free = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    free = tuple(f for f in names if f in free)
    theta = [np.exp(draw(LOG_POSITIVE)) if f in positive else draw(st.floats(-2.0, 2.0))
             for f in free]
    return free, theta


@settings(max_examples=80)
@given(data=st.data())
def test_record_terms_equal_the_public_densities(data):
    # a fit's per-record path and the public per-call functions compute each
    # formula once, so they agree bit for bit at every theta
    def check(td, obs, theta, public):
        dts, values = np.diff(obs.times), obs.values
        with np.errstate(all="ignore"):
            got = td.record_terms(*obs.pairs())(theta)
            want = public(dts, values[:-1], values[1:])
        assert np.array_equal(got, want, equal_nan=True)

    obs = data.draw(records(0.05, 20.0))
    free, theta = _free_theta(data.draw, ("beta", "sigma"), ("sigma",))
    p = replace(P_GBM, **dict(zip(free, theta)))
    check(GbmDensity(P_GBM, free=free), obs, theta,
          lambda dt, x, y: densities.gbm_transition_logdensity(p, dt, x, y))

    obs = data.draw(records(-5.0, 5.0))
    base = OuParams(gamma=1.0, beta_bar=0.4, sigma=0.5)
    free, theta = _free_theta(data.draw, ("gamma", "beta_bar", "sigma"), ("gamma", "sigma"))
    p = replace(base, **dict(zip(free, theta)))
    check(OuDensity(base, free=free), obs, theta,
          lambda *pair: ou_record_logdensity(p, densities.record_arrays(*pair)))
    spec = ou_spec(p)
    check(EulerDensity(ou_spec(base)), obs, spec.theta,
          lambda *pair: euler_record_logdensity(spec, densities.record_arrays(*pair)))


def _counting(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("make_td", [
    lambda: GbmDensity(P_GBM),
    lambda: OuDensity(OuParams(gamma=1.0, beta_bar=1.0, sigma=0.2)),
    lambda: EulerDensity(gbm_spec(P_GBM)),
], ids=["gbm", "ou", "euler"])
def test_mle_fit_prepares_the_record_once(monkeypatch, make_td):
    calls = {"pairs": 0, "prepare": 0, "moments": 0}
    monkeypatch.setattr(ObservationSet, "pairs", _counting(calls, "pairs", ObservationSet.pairs))
    td = make_td()
    record_moments = td.record_moments

    def counted(self, *pairs):
        calls["prepare"] += 1
        moments, log_jacobian = record_moments(*pairs)
        return _counting(calls, "moments", moments), log_jacobian

    monkeypatch.setattr(type(td), "record_moments", counted)
    obs = _gbm_obs(P_GBM, 0.1 * np.arange(51), (91, 0))
    fit = mle_fit(td, obs, td.theta)
    assert fit.standard_errors is not None
    assert calls["pairs"] == 1
    assert calls["prepare"] == 1  # the terms and the score share one preparation
    assert calls["moments"] > 10  # the scoring's probes, the line search and the Hessian probes


def test_bad_record_raises_before_any_evaluation(monkeypatch):
    calls = {"theta": 0}
    monkeypatch.setattr(densities, "gbm_moments", _counting(calls, "theta", densities.gbm_moments))
    obs = ObservationSet(times=[0.0, 0.5, 1.0], values=[1.0, -0.2, 1.1])
    with pytest.raises(ValueError, match="GBM states must be positive"):
        mle_fit(GbmDensity(P_GBM), obs, [0.1, 0.2])
    assert calls["theta"] == 0


@dataclass(frozen=True)
class _CountingFokkerPlanck(FokkerPlanckDensity):
    points: list = field(default_factory=list)

    def record_terms(self, dts, x, y):
        terms = super().record_terms(dts, x, y)

        def counted(theta):
            self.points.append(np.asarray(theta, dtype=float).tobytes())
            return terms(theta)
        return counted


def test_mle_fit_evaluates_each_working_point_once():
    obs = _gbm_obs(P_GBM, np.array([0.0, 0.5, 1.2]), (92, 0))
    td = _CountingFokkerPlanck(gbm_beta_spec(0.1, 0.2), y_min=0.2, y_max=3.0,
                               n_cells=80, n_time_steps=20)
    fit = mle_fit(td, obs, [0.1], compute_stderr=False)
    assert fit.converged
    assert len(td.points) > 0
    assert len(td.points) == len(set(td.points))
    # without the memo the 1-D simplex and its restart revisit points
    seen = []
    minimize_simplex(lambda z: seen.append(z.tobytes()) or float((z[0] - 0.3) ** 2),
                     np.array([0.1]))
    assert len(seen) > len(set(seen))


def test_failing_stderr_probes_leave_the_estimate_standing(monkeypatch):
    evaluations, budget = [], [np.inf]
    record_moments = GbmDensity.record_moments

    def failing_after_budget(self, dts, x, y):
        moments, log_jacobian = record_moments(self, dts, x, y)

        def at(theta):
            evaluations.append(theta)
            if len(evaluations) > budget[0]:
                raise DegenerateImportanceError(0)
            return moments(theta)
        return at, log_jacobian

    monkeypatch.setattr(GbmDensity, "record_moments", failing_after_budget)
    obs = _gbm_obs(P_GBM, 0.1 * np.arange(51), (93, 0))
    plain = mle_fit(GbmDensity(P_GBM), obs, [0.1, 0.2], compute_stderr=False)
    # the same fit again, now with every standard-error probe raising: the stack of the
    # eight probes of the two parameters raises, then each probe alone counts as -inf;
    # the centre is the fit's own value
    budget[0], evaluations[:] = len(evaluations), []
    fit = mle_fit(GbmDensity(P_GBM), obs, [0.1, 0.2])
    assert len(evaluations) == budget[0] + 9
    assert [np.shape(theta) for theta in evaluations[-9:]] == [(8, 2)] + [(2,)] * 8
    assert fit.converged and fit.standard_errors is None
    assert np.array_equal(fit.theta_hat, plain.theta_hat)


DENSITY_CLASSES = [GbmDensity, OuDensity, EulerDensity, FokkerPlanckDensity, BridgeDensity]


def test_each_density_implements_only_record_terms():
    # logdensities is the base class's view of record_terms, so a fit and a
    # direct call take the same path
    for cls in DENSITY_CLASSES:
        own = [c for c in cls.__mro__ if issubclass(c, TransitionDensity)
               and c is not TransitionDensity]
        assert not any("logdensities" in vars(c) for c in own)
        assert any("record_terms" in vars(c) for c in own)


@pytest.mark.parametrize("make_td", [
    EulerDensity,
    lambda spec: FokkerPlanckDensity(spec, -5.0, 5.0),
    lambda spec: BridgeDensity(spec, m_sub=4, j_samples=10),
], ids=["euler", "fokker_planck", "bridge"])
def test_spec_densities_reject_a_2d_model_at_construction(make_td):
    spec = DiffusionSpec(drift=lambda x, th: -th[0] * x, diffusion=lambda x, th: np.ones_like(x),
                         theta=[1.0], x0=[0.0, 0.0], state_dim=2)
    with pytest.raises(UnsupportedDimensionError, match="scalar models only"):
        make_td(spec)


# the per-evaluation path of a fit: each step below is checked against the
# arithmetic it replaced, bit for bit

@settings(max_examples=60, derandomize=True)
@given(finite=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
       bad=st.lists(st.tuples(st.integers(0, 29), st.sampled_from([np.nan, np.inf, -np.inf])),
                    min_size=1, max_size=4))
def test_loglik_at_names_the_first_non_finite_term(finite, bad):
    terms = np.array(finite)
    for i, value in bad:
        terms[i % len(terms)] = value
    first = int(np.argmax(~np.isfinite(terms)))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteTermError) as err:
        _loglik_at(lambda theta: terms, None)
    assert err.value.pair == first
    assert np.array_equal(err.value.value, terms[first], equal_nan=True)


def test_loglik_at_returns_an_overflowing_sum_of_finite_terms():
    for sign in (1.0, -1.0):
        terms = sign * np.full(3, 1e308)
        with np.errstate(all="ignore"):
            assert _loglik_at(lambda theta: terms, None) == sign * np.inf
    assert _loglik_at(lambda theta: np.array([0.5, -2.0, 1.25]), None) == -0.25


def _from_working_per_element(z, positive_mask):
    theta = np.array(z, dtype=float)
    for i, pos in enumerate(positive_mask):
        if pos:
            theta[i] = np.exp(theta[i])
    return theta


@settings(max_examples=80, derandomize=True)
@given(data=st.data())
def test_from_working_equals_the_per_element_loop(data):
    k = data.draw(st.integers(1, 4))
    # log-uniform magnitudes out to 750, past exp's overflow at about 709.8
    z = [data.draw(st.sampled_from([1.0, -1.0])) * 10.0 ** data.draw(st.floats(-3.0, np.log10(750.0)))
         for _ in range(k)]
    mask = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    with np.errstate(over="ignore"):
        got = from_working(np.array(z), np.array(mask))
        want = _from_working_per_element(np.array(z), tuple(mask))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, derandomize=True)
@given(obs=irregular_records(-5.0, 5.0), log_gamma=st.floats(-3.0, 3.0),
       beta_bar=st.floats(-2.0, 2.0), log_sigma=st.floats(-3.0, 3.0))
def test_euler_record_terms_equal_a_spec_rebuilt_at_theta(obs, log_gamma, beta_bar, log_sigma):
    spec = ou_spec(OuParams(gamma=1.0, beta_bar=0.4, sigma=0.5))
    theta = np.array([np.exp(log_gamma), beta_bar, np.exp(log_sigma)])
    got = EulerDensity(spec).record_terms(*obs.pairs())(theta)
    want = euler_record_logdensity(spec.with_theta(theta), densities.record_arrays(*obs.pairs()))
    assert np.array_equal(got, want)


# Fisher scoring: the Gaussian densities' moments give the score, and the
# scoring fit reaches at least the simplex's log-likelihood

P_OU = OuParams(gamma=1.0, beta_bar=0.2, sigma=0.5)
SCORED = {
    "gbm": (lambda: GbmDensity(P_GBM), P_GBM),
    "gbm-beta": (lambda: GbmDensity(P_GBM, free=("beta",)), P_GBM),
    "ou": (lambda: OuDensity(P_OU), P_OU),
    "euler-ou": (lambda: EulerDensity(ou_spec(P_OU)), P_OU),
}


@st.composite
def scored_fits(draw):
    """A Gaussian density, a record simulated from its model on regular or
    irregular times, and a start moved off the truth in working coordinates."""
    make_td, p = SCORED[draw(st.sampled_from(sorted(SCORED)))]
    td, seed = make_td(), draw(st.integers(0, 10**6))
    n_pairs = draw(st.integers(20, 80))
    if draw(st.booleans()):
        times = 0.1 * np.arange(n_pairs + 1)
    else:
        times = np.concatenate([[0.0], np.cumsum(stream(seed, "gaps").exponential(0.1, n_pairs))])
    obs = _gbm_obs(p, times, (seed, "scored"))  # simulate_states_at takes either model
    mask = np.array(td.positive_mask)
    shift = draw(st.lists(st.floats(-0.5, 0.5), min_size=len(mask), max_size=len(mask)))
    return td, obs, mask, to_working(td.theta, mask) + shift


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=scored_fits())
def test_moments_score_equals_the_differenced_log_likelihood(case):
    td, obs, mask, z = case
    moments, _ = td.record_moments(*obs.pairs())
    score, fisher = _score_and_fisher(moments, z, mask)
    terms = td.record_terms(*obs.pairs())
    h = 1e-5 * np.maximum(np.abs(z), 1.0)
    numeric = [(terms(from_working(z + e, mask)).sum() - terms(from_working(z - e, mask)).sum())
               / (2.0 * hi) for e, hi in zip(np.diag(h), h)]
    # the score's own scale is the square root of the Fisher information
    assert np.all(np.abs(score - numeric) <= 1e-7 * (np.abs(numeric) + np.sqrt(np.diag(fisher))))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=scored_fits())
def test_scoring_fit_reaches_the_simplex_log_likelihood(case):
    td, obs, mask, z0 = case
    terms = td.record_terms(*obs.pairs())
    fit = mle_fit(td, obs, from_working(z0, mask), compute_stderr=False)
    with np.errstate(all="ignore"):
        _, f_simplex, _, _ = minimize_simplex(
            lambda z: -float(terms(from_working(z, mask)).sum()), z0)
    assert fit.converged and fit.diagnostics["optimizer"] == "fisher-scoring"
    assert fit.iterations <= 20
    assert fit.objective_value >= -f_simplex - 1e-9


def _simplex_from(td, obs, z0):
    """``minimize_simplex`` on the fit's objective, in working coordinates."""
    mask = np.array(td.positive_mask)
    terms = td.record_terms(*obs.pairs())

    def neg(z):
        total = float(terms(from_working(z, mask)).sum())
        return -total if np.isfinite(total) else np.inf

    with np.errstate(all="ignore"):
        return neg, minimize_simplex(neg, z0)


def test_a_stalled_scoring_fit_is_the_simplex_fit_from_the_start():
    # on constant values gamma and sigma move the OU variance alike, so the
    # Fisher matrix is singular at the start and the simplex takes over
    obs = ObservationSet(times=np.arange(5.0), values=np.ones(5))
    td = OuDensity(OuParams(gamma=0.7, beta_bar=1.0, sigma=0.1))
    mask = np.array(td.positive_mask)
    _, (z, f, nit, ok) = _simplex_from(td, obs, to_working(td.theta, mask))
    fit = mle_fit(td, obs, td.theta, compute_stderr=False)
    assert fit.diagnostics["optimizer"] == "nelder-mead"
    assert fit.theta_hat.tobytes() == from_working(z, mask).tobytes()
    assert (fit.objective_value, fit.iterations, fit.converged) == (-f, nit, ok)


def test_the_simplex_rescues_an_ou_fit_whose_fisher_matrix_turns_singular(monkeypatch):
    # a near-white-noise OU record (gamma 13, 74 gaps log-uniform in [0.01, 2]) fitted
    # from the CLI's data start: scoring steps gamma out to about 1e289, where the Fisher
    # matrix is singular, and stalls; the simplex converges to the finite MLE that a Newton
    # pass from the same start also reaches.  Record 1217 of a 1,500-record probe drawn
    # as below (gamma in [5, 20], 5-500 pairs), where the simplex rescued 4 such fits
    rng = stream(2032, "ou_irregular", 1217)
    gamma, sigma = float(np.exp(rng.uniform(np.log(5.0), np.log(20.0)))), rng.uniform(0.05, 3.0)
    times = np.concatenate([[0.0], np.cumsum(np.exp(rng.uniform(
        np.log(0.01), np.log(2.0), rng.integers(5, 501))))])
    p = OuParams(gamma=gamma, beta_bar=rng.normal(), sigma=sigma, b0=rng.normal())
    obs = ObservationSet(times=times, values=simulate_states_at(p, times, rng)[:, 0])
    td = OuDensity(OuParams(*_ou_init_from_data(obs)))
    singular = []

    def recorded_fisher_step(*args):
        try:
            return fisher_step(*args)
        except np.linalg.LinAlgError:
            singular.append(args[-1])
            raise

    monkeypatch.setattr(likelihood, "fisher_step", recorded_fisher_step)
    fit = mle_fit(td, obs, td.theta)
    assert fit.diagnostics["optimizer"] == "nelder-mead" and fit.converged
    assert len(singular) == 1 and singular[0][0] > np.log(1e280)  # log gamma
    assert fit.theta_hat[0] == pytest.approx(42.1652, rel=1e-5) and fit.standard_errors is not None

    mask, terms = np.array(td.positive_mask), td.record_terms(*obs.pairs())

    def negs(zs):
        totals = [float(terms(from_working(z, mask)).sum()) for z in zs]
        return np.array([-t if np.isfinite(t) else np.inf for t in totals])

    with np.errstate(all="ignore"):
        z, f, _, ok = descend(lambda z: negs([z])[0], partial(newton_step, negs),
                              to_working(td.theta, mask))
    assert ok and from_working(z, mask) == pytest.approx(fit.theta_hat, rel=1e-6)
    assert -f == pytest.approx(fit.objective_value, abs=1e-9)


# Newton steps: the bridge and Fokker-Planck fits difference the objective and
# reach the simplex's estimate from the same start

NEWTON = {  # density for a record, the model the record is simulated from, its pair counts
    "bridge-gbm": (lambda obs: BridgeDensity(gbm_spec(P_GBM), m_sub=4, j_samples=50, seed=5),
                   P_GBM, (4, 12)),
    "bridge-ou": (lambda obs: BridgeDensity(ou_spec(P_OU), m_sub=4, j_samples=50, seed=5),
                  P_OU, (12, 20)),
    "fokker-planck-beta": (lambda obs: FokkerPlanckDensity(
        gbm_beta_spec(0.1, 0.2), 0.5 * obs.values.min(), 2.0 * obs.values.max(), 80, 20),
        P_GBM, (2, 6)),
}


@st.composite
def newton_fits(draw):
    """A bridge or Fokker-Planck density, a record simulated from its model on
    regular or irregular times, and a start moved off the truth in working
    coordinates.  Each start coordinate lies at least 0.05 from 0: the simplex
    builds its first vertex 5% away, so it would not move a coordinate near 0."""
    make_td, p, (lo, hi) = NEWTON[draw(st.sampled_from(sorted(NEWTON)))]
    seed, n_pairs = draw(st.integers(0, 10**6)), draw(st.integers(lo, hi))
    if draw(st.booleans()):
        times = 0.5 * np.arange(n_pairs + 1)
    else:
        times = np.concatenate([[0.0], np.cumsum(stream(seed, "gaps").uniform(0.25, 0.75,
                                                                               n_pairs))])
    obs = _gbm_obs(p, times, (seed, "newton"))
    td = make_td(obs)
    mask = np.array(td.positive_mask)
    shift = draw(st.lists(st.floats(-0.5, 0.5), min_size=len(mask), max_size=len(mask)))
    z0 = to_working(td.theta, mask) + shift
    assume(np.all(np.abs(z0) >= 0.05))
    return td, obs, mask, z0


@settings(max_examples=20, derandomize=True, deadline=None)
@given(case=newton_fits())
def test_newton_fit_reaches_the_simplex_estimate(case):
    td, obs, mask, z0 = case
    fit = mle_fit(td, obs, from_working(z0, mask), compute_stderr=False)
    _, (z, f_simplex, _, ok) = _simplex_from(td, obs, z0)
    assert ok and fit.converged and fit.diagnostics["optimizer"] == "newton"
    theta = from_working(z, mask)
    assert np.all(np.abs(fit.theta_hat - theta) <= 1e-6 * np.maximum(np.abs(theta), 1.0))
    assert fit.objective_value >= -f_simplex - 1e-8


def test_newton_fit_starts_where_the_hessian_is_indefinite():
    # at this start the objective curves down along one direction, where a
    # plain Newton step would climb; the floored |eigenvalues| still descend
    obs = _gbm_obs(P_GBM, 0.5 * np.arange(4), (13, "indefinite"))
    td = BridgeDensity(gbm_spec(P_GBM), m_sub=4, j_samples=50, seed=13)
    z0 = to_working(td.theta, td.positive_mask)
    neg, (z, f_simplex, _, _) = _simplex_from(td, obs, z0)
    _, hess = _central_differences(lambda dzs: [neg(z0 + dz) for dz in dzs], neg(z0),
                                   1e-4 * np.maximum(np.abs(z0), 1.0))
    assert np.linalg.eigvalsh(hess)[0] < 0
    fit = mle_fit(td, obs, td.theta, compute_stderr=False)
    assert fit.converged and fit.diagnostics["optimizer"] == "newton"
    assert np.allclose(fit.theta_hat, from_working(z, td.positive_mask), rtol=1e-6, atol=1e-8)
    assert fit.objective_value >= -f_simplex - 1e-8


def test_a_point_where_no_bridge_weight_survives_counts_as_minus_infinity(monkeypatch):
    # from this start the first Newton steps overshoot to gamma = inf and sigma
    # near 0, where every importance weight of a pair vanishes; the fit halves
    # them as it would a falling log-likelihood and reaches the simplex's estimate
    obs = _gbm_obs(P_OU, 0.5 * np.arange(5), (24, "x"))
    td = BridgeDensity(ou_spec(P_OU), m_sub=4, j_samples=50, seed=5)
    mask = np.array(td.positive_mask)
    z0 = to_working(td.theta, mask) + stream(24, "shift").uniform(-0.5, 0.5, 3)
    raised, evaluate = [], bridge.record_logdensities

    def recording(*args):
        try:
            return evaluate(*args)
        except DegenerateImportanceError:
            raised.append(args[1])
            raise

    monkeypatch.setattr(bridge, "record_logdensities", recording)
    fit = mle_fit(td, obs, from_working(z0, mask), compute_stderr=False)
    assert raised
    assert fit.converged and fit.diagnostics["optimizer"] == "newton"
    _, (z, f_simplex, _, _) = _simplex_from(td, obs, z0)
    assert np.allclose(fit.theta_hat, from_working(z, mask), rtol=1e-6, atol=1e-8)
    assert fit.objective_value >= -f_simplex - 1e-8


@dataclass(frozen=True)
class _HoledDensity(TransitionDensity):
    """Log-density -(theta - 3)^2 per pair, NaN within 1e-3 of the start but at
    the start itself: every Newton probe (1e-4 away) is non-finite, while the
    simplex's first vertex (5% away) and its later points are finite."""

    start: float = 1.0
    kind = "holed"
    positive_mask = (False,)

    @property
    def theta(self):
        return np.array([self.start])

    def record_terms(self, dts, x, y):
        def at(theta):
            gap = abs(float(np.ravel(theta)[0]) - self.start)
            return np.full(len(dts), np.nan if 0 < gap < 1e-3 else -(gap - 2.0) ** 2)
        return at


def test_non_finite_newton_probes_fall_back_to_the_simplex_fit():
    obs = ObservationSet(times=np.arange(4.0), values=np.ones(4))
    td = _HoledDensity()
    _, (z, f, nit, ok) = _simplex_from(td, obs, td.theta)
    fit = mle_fit(td, obs, td.theta, compute_stderr=False)
    assert fit.diagnostics["optimizer"] == "nelder-mead"
    assert fit.theta_hat.tobytes() == z.tobytes()
    assert (fit.objective_value, fit.iterations, fit.converged) == (-f, nit, ok)


def _singular_step(z):
    raise WeightSingularityError("sigma(x, theta) = 0 at a quadrature node; cannot weight")


def test_a_trial_theta_that_raises_counts_as_minus_infinity():
    # a Fokker-Planck start Gaussian with no mass on the grid raises
    # InvalidGridError at some trial thetas of this fit; those count as -inf,
    # as a non-finite log-likelihood does, and the fit goes on from its start
    spec = DiffusionSpec(drift=lambda x, th: th[0] * np.ones_like(x),
                         diffusion=lambda x, th: th[1] * np.ones_like(x),
                         theta=[3.0, 0.05], x0=[0.0], positive=(False, True))
    td = FokkerPlanckDensity(spec, -4.0, 4.0, 200, 20)
    obs = ObservationSet(times=0.5 * np.arange(6), values=[0.0, 0.5, -0.3, 0.8, 0.1, 0.9])
    start = discrete_loglikelihood(td, obs)
    assert start == pytest.approx(-724.7, abs=0.05)
    fit = mle_fit(td, obs, td.theta)
    assert np.isfinite(fit.objective_value) and fit.objective_value > start
    assert fit.converged


def test_a_stack_that_raises_is_evaluated_row_by_row():
    # a stacking density whose call raises for the whole stack: each row alone,
    # -inf for the rows that raise, the others their 1-D sums
    def terms(theta):
        theta = np.asarray(theta)
        if np.any(theta[..., 0] < 0):
            raise InvalidGridError("negative theta")
        return np.repeat(theta[..., :1], 3, axis=-1) * [1.0, 2.0, 3.0]

    thetas = np.array([[1.0], [-1.0], [0.5]])
    for stacks in (True, False):
        assert _logliks(terms, thetas, stacks) == [6.0, -np.inf, 3.0]
    assert _logliks(terms, thetas[[0, 2]], True) == [6.0, 3.0]


@pytest.mark.parametrize("step_at", [_singular_step, lambda z: np.array([np.nan])],
                         ids=["raises", "non-finite"])
def test_a_failed_step_ends_descend_at_once_as_a_stall(step_at):
    calls = []

    def fun(z):
        calls.append(z.copy())
        return float(z @ z)

    z0 = np.array([2.0])
    z, f, nit, ok = descend(fun, step_at, z0)
    assert z is z0 and (f, nit, ok) == (4.0, 1, False)
    assert len(calls) == 1


def test_the_floating_point_policy_nests_and_restores_numpy_state():
    # each call opens its own errstate, so nested entry points leave the state as found
    seen = []
    inner = _fp_policy()(lambda: seen.append(np.geterr()))
    outer = _fp_policy()(lambda: (inner(), seen.append(np.geterr()), np.float64(1e308) * 10)[-1])
    before = np.geterr()
    assert outer() == np.inf
    assert seen == [dict.fromkeys(before, "ignore")] * 2
    assert np.geterr() == before


# A Gaussian density takes an (m, k) stack in one moment call, the bridge in stacked
# passes: row i of the terms, and the scoring's differences, carry the bytes of the 1-D
# evaluations.  At sigma 0x1.8304189ee8af6p-3 numpy's scalar power (libm pow) gives
# 0x1.248ab1409d6bep-5 and the array square s * s ...bdp-5, so a stack squares sigma
# row by row.
POW_SIGMA = float.fromhex("0x1.8304189ee8af6p-3")
OU_STACKED = OuParams(gamma=0.8, beta_bar=1.0, sigma=0.3)
FLOAT_GBM_SPEC = DiffusionSpec(drift=lambda x, th: float(th[0]) * x,
                               diffusion=lambda x, th: float(th[1]) * x,
                               theta=[0.1, 0.2], x0=[1.0], positive=(False, True))
STACKING = {  # density (sigma its last parameter), whether its states must be positive
    "gbm": (lambda: GbmDensity(P_GBM), True),
    "ou": (lambda: OuDensity(OU_STACKED), False),
    "ou_sigma": (lambda: OuDensity(OU_STACKED, free=("sigma",)), False),  # fixed fields as columns
    "euler_ou": (lambda: EulerDensity(ou_spec(OU_STACKED)), False),
    "euler_gbm": (lambda: EulerDensity(gbm_spec(P_GBM)), True),
    "euler_floats": (lambda: EulerDensity(FLOAT_GBM_SPEC), True),
    "euler_beta": (lambda: EulerDensity(gbm_beta_spec(0.1, POW_SIGMA)), True),  # theta-free sigma
    "bridge": (lambda: BridgeDensity(gbm_spec(P_GBM), m_sub=4, j_samples=20, seed=5), True),
}


def _score_and_fisher_by_points(moments, z, mask):
    """The reference: the centre and each probe in a 1-D call of its own."""
    target, mean, var = moments(from_working(z, mask))
    h = 1e-6 * np.maximum(np.abs(z), 1.0)
    dm, dv = np.empty((2, len(z), len(target)))
    for i, e in enumerate(np.diag(h)):
        _, m_up, v_up = moments(from_working(z + e, mask))
        _, m_dn, v_dn = moments(from_working(z - e, mask))
        dm[i], dv[i] = (m_up - m_dn) / (2.0 * h[i]), (v_up - v_dn) / (2.0 * h[i])
    r = target - mean
    score = dm @ (r / var) + 0.5 * (dv @ (r**2 / var**2 - 1.0 / var))
    return score, (dm / var) @ dm.T + (dv / (2.0 * var**2)) @ dv.T


@settings(max_examples=40, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(STACKING)), n_pairs=st.integers(1, 30), m=st.integers(1, 7),
       key=st.integers(0, 2**32), pow_row=st.booleans())
@example(name="gbm", n_pairs=20, m=3, key=0, pow_row=True)
@example(name="ou", n_pairs=20, m=3, key=0, pow_row=True)
def test_a_stack_carries_the_bytes_of_its_rows(name, n_pairs, m, key, pow_row):
    make_td, positive = STACKING[name]
    td, rng = make_td(), stream(key, "stacked rows")
    dts = rng.uniform(0.05, 1.0, n_pairs)
    x, y = rng.uniform(0.5, 2.0, (2, n_pairs)) if positive else rng.normal(1.0, 0.5, (2, n_pairs))
    mask = np.array(td.positive_mask)
    z = to_working(td.theta, mask) + 0.3 * rng.standard_normal(len(mask))
    thetas = from_working(z + 0.1 * rng.standard_normal((m, len(mask))), mask)
    if pow_row:
        thetas[0, -1] = POW_SIGMA
    at = td.record_terms(dts, x, y)
    with _fp_policy():
        stacked = at(thetas)
        assert stacked.shape == (m, n_pairs)
        for row, theta in zip(stacked, thetas):
            assert row.tobytes() == at(theta).tobytes()
        if td.kind != "bridge_mc":
            moments, _ = td.record_moments(dts, x, y)
            got = _score_and_fisher(moments, z, mask)
            want = _score_and_fisher_by_points(moments, z, mask)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("td, z, error", [
    # sigma = exp(-800) underflows to 0: a degenerate density
    (GbmDensity(P_GBM), [[0.1, np.log(0.2)], [0.1, -800.0], [0.3, np.log(0.5)]],
     DegenerateDensityError),
    # gamma = exp(-800) underflows to 0: OuParams rejects the row
    (OuDensity(OU_STACKED), [[0.0, 1.0, -1.0], [-800.0, 1.0, -1.0], [0.5, 0.8, -1.5]],
     ValueError),
], ids=["gbm_sigma_0", "ou_gamma_0"])
def test_a_degenerate_row_leaves_the_rest_of_its_stack_standing(td, z, error):
    # the stack's one moment call raises, so each row goes alone: -inf for the
    # degenerate one and their 1-D sums for the others
    terms = td.record_terms(*_gbm_obs(P_GBM, 0.1 * np.arange(21), (94, 0)).pairs())
    thetas = from_working(np.array(z), np.array(td.positive_mask))
    assert 0.0 in thetas[1]
    with _fp_policy():
        with pytest.raises(error):
            terms(thetas)
        values = _logliks(terms, thetas, td.stacks)
        assert values == [float(terms(thetas[0]).sum()), -np.inf, float(terms(thetas[2]).sum())]


def test_an_euler_spec_of_python_floats_fits_as_the_broadcasting_spec():
    # float(th[0]) cannot take a column of thetas: such a spec's stacks go row by row
    # (m = 1), and it fits byte for byte as the same model written to broadcast
    shapes = []

    def drift(x, th):
        shapes.append(np.shape(th))
        return -float(th[0]) * (x - float(th[1]))

    p = OuParams(gamma=1.0, beta_bar=0.2, sigma=0.5)
    as_float = DiffusionSpec(drift=drift, diffusion=lambda x, th: float(th[2]) * np.ones_like(x),
                             theta=[p.gamma, p.beta_bar, p.sigma], x0=[0.0],
                             positive=(True, False, True))
    obs = _gbm_obs(p, 0.1 * np.arange(101), (95, 0))  # simulate_states_at takes either model
    fits = [mle_fit(EulerDensity(spec), obs, spec.theta) for spec in (as_float, ou_spec(p))]
    assert fits[0].converged and fits[0].diagnostics["optimizer"] == "fisher-scoring"
    # the record's check tried columns once; every evaluation took a 1-D theta
    assert shapes.count((3, 2, 1)) == 1 and set(shapes) == {(3,), (3, 2, 1)}
    assert fits[0].theta_hat.tobytes() == fits[1].theta_hat.tobytes()
    assert fits[0].standard_errors.tobytes() == fits[1].standard_errors.tobytes()
    assert (fits[0].objective_value, fits[0].iterations) == (fits[1].objective_value,
                                                            fits[1].iterations)


def test_a_one_theta_euler_log_likelihood_calls_drift_and_diffusion_once():
    # whether drift and diffusion take a stack of thetas as columns is asked on a
    # record's first stacked call, not when the record is prepared: a log-likelihood
    # at one theta calls each once, and a record asks once however many stacks follow
    calls = []
    ou = ou_spec(OuParams(gamma=1.0, beta_bar=0.2, sigma=0.5))
    spec = replace(ou, drift=lambda x, th: calls.append("drift") or ou.drift(x, th),
                   diffusion=lambda x, th: calls.append("diffusion") or ou.diffusion(x, th))
    obs = _gbm_obs(OuParams(gamma=1.0, beta_bar=0.2, sigma=0.5), 0.1 * np.arange(201), (96, 0))
    loglik = discrete_loglikelihood(EulerDensity(spec), obs)
    assert calls == ["drift", "diffusion"]
    assert loglik == discrete_loglikelihood(EulerDensity(ou), obs)
    calls.clear()
    at = EulerDensity(spec).record_terms(*obs.pairs())
    thetas = ou.theta + np.array([[0.0, 0.0, 0.0], [0.1, -0.1, 0.2]])
    with _fp_policy():
        stacks = [at(thetas), at(thetas)]
    assert calls.count("drift") == calls.count("diffusion") == 3 + 2  # the check's 3, then 1 a stack
    assert stacks[1].tobytes() == np.vstack([at(theta) for theta in thetas]).tobytes()
