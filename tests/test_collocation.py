import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftlab.collocation import (
    BasisConfig,
    CollocationProblem,
    PenaltySpec,
    _quadrature_nodes,
    collocation_fit,
    map_equivalent_sigma,
)
from driftlab.errors import DataFormatError, InvalidStartError, WeightSingularityError
from driftlab.models import DiffusionSpec, gbm_beta_spec
from driftlab.observe import NoisyObservationSet, ObservationModel, projection_link
from driftlab.rng import stream

TIMES = np.linspace(0.0, 2.0, 40)
OM = ObservationModel(kind="gaussian", scale=0.05)


def _const_drift_spec(rate=0.4):
    return DiffusionSpec(drift=lambda x, th: th[0] * np.ones_like(x),
                         diffusion=lambda x, th: np.ones_like(x),
                         theta=[rate], x0=[0.0])


def _line_obs(a=0.3, b=0.4, noise=0.0, key=(1,)):
    y = a + b * TIMES
    if noise:
        y = y + noise * stream(*key).standard_normal(len(TIMES))
    return NoisyObservationSet(times=TIMES, y_values=y)


def test_n_basis_counts_interior_knots_plus_four():
    basis = BasisConfig.from_times(TIMES)
    assert basis.n_basis == (len(TIMES) - 2) + 4


def test_zero_residual_when_solution_representable():
    # constant drift rate: x(t) = a + b t solves dx/dt = mu exactly and a line
    # lies in the cubic spline space, so the penalty vanishes to quadrature noise
    obs = _line_obs(a=0.3, b=0.4)
    basis = BasisConfig.from_times(TIMES)
    spec = _const_drift_spec(0.4)
    prob = CollocationProblem(basis, obs, OM, spec, PenaltySpec(lam=1.0))
    # dense projection pins the line's exact spline representation (a plain
    # data least-squares leaves two coefficients free to wiggle)
    c = np.linalg.lstsq(prob.Bq, 0.3 + 0.4 * prob.q_nodes, rcond=None)[0]
    _, penalty = prob.terms(c, spec.theta)
    assert penalty <= 1e-10


def test_lambda_zero_objective_is_pure_negative_loglik():
    obs = _line_obs(noise=0.05, key=(2,))
    basis = BasisConfig.from_times(TIMES)
    spec = _const_drift_spec()
    c = stream(3).standard_normal(basis.n_basis)
    prob = CollocationProblem(basis, obs, OM, spec, PenaltySpec(lam=0.0))
    obj = prob.objective(c, spec.theta)
    data, penalty = prob.terms(c, spec.theta)
    assert penalty == 0.0
    assert obj == pytest.approx(data, rel=1e-14)
    assert data == pytest.approx(-np.sum(OM.loglik_series(obs.y_values,
                                                          (prob.B_obs @ c)[:, None])),
                                 rel=1e-12)


def test_weighted_penalty_scaling_identity():
    # sigma = 1/sqrt(2 lam') constant: weighted integrand = 2 lam' * unweighted
    obs = _line_obs(noise=0.02, key=(4,))
    basis = BasisConfig.from_times(TIMES)
    lam_prime = 2.0
    sig = map_equivalent_sigma(lam_prime)
    spec = DiffusionSpec(drift=lambda x, th: th[0] * np.ones_like(x),
                         diffusion=lambda x, th: sig * np.ones_like(x),
                         theta=[0.4], x0=[0.0])
    prob_w = CollocationProblem(basis, obs, OM, spec,
                                PenaltySpec(lam=1.0, weight_mode="sigma_weighted"))
    prob_u = CollocationProblem(basis, obs, OM, spec, PenaltySpec(lam=1.0))
    c = stream(5).standard_normal(basis.n_basis)
    _, pen_w = prob_w.terms(c, spec.theta)
    _, pen_u = prob_u.terms(c, spec.theta)
    assert pen_w == pytest.approx(2.0 * lam_prime * pen_u, rel=1e-12)


def test_weight_singularity_error():
    obs = _line_obs()
    basis = BasisConfig.from_times(TIMES)
    spec = DiffusionSpec(drift=lambda x, th: th[0] * np.ones_like(x),
                         diffusion=lambda x, th: np.zeros_like(x),
                         theta=[0.4], x0=[0.0])
    prob = CollocationProblem(basis, obs, OM, spec,
                              PenaltySpec(lam=1.0, weight_mode="sigma_weighted"))
    with pytest.raises(WeightSingularityError):
        prob.terms(np.zeros(basis.n_basis), spec.theta)


def test_fit_recovers_noiseless_growth_rate():
    times = np.linspace(0.0, 2.0, 50)
    obs = NoisyObservationSet(times=times, y_values=np.exp(0.3 * times))
    om = ObservationModel(kind="gaussian", scale=1e-6)
    fit, fitted = collocation_fit(obs, om, gbm_beta_spec(0.5, 1.0),
                                  BasisConfig.from_times(times), PenaltySpec(lam=1e4))
    assert fit.converged
    assert abs(fit.theta_hat[0] - 0.3) / 0.3 <= 0.01
    assert fitted.values.shape[1] == 2  # trajectory and its derivative
    # fitted trajectory interpolates the data closely
    x_fit = np.interp(times, fitted.times, fitted.values[:, 0])
    assert np.max(np.abs(x_fit - obs.y_values)) < 1e-3


def test_lambda_sweep_penalty_nonincreasing():
    times = np.linspace(0.0, 2.0, 30)
    y = np.exp(0.3 * times) + 0.05 * stream(6).standard_normal(30)
    obs = NoisyObservationSet(times=times, y_values=y)
    om = ObservationModel(kind="gaussian", scale=0.05)
    penalties = []
    data_terms = []
    for lam in (1e-2, 1.0, 1e2, 1e4):
        fit, _ = collocation_fit(obs, om, gbm_beta_spec(0.4, 1.0),
                                 BasisConfig.from_times(times), PenaltySpec(lam=lam),
                                 max_outer=60)
        # the raw integral, with the lambda factor divided back out
        penalties.append(fit.diagnostics["penalty_term"] / lam)
        data_terms.append(fit.diagnostics["data_term"])
    assert all(a >= b - 1e-9 for a, b in zip(penalties, penalties[1:]))
    # the data term can only get worse as the penalty takes over
    unpenalized = data_terms[0]
    assert all(d >= unpenalized - 1e-6 for d in data_terms[1:])


def test_quadrature_doubling_changes_little_on_smooth_fit():
    obs = _line_obs()
    basis = BasisConfig.from_times(TIMES)
    spec = _const_drift_spec(0.35)
    base = CollocationProblem(basis, obs, OM, spec, PenaltySpec(lam=1.0))
    # smooth spline: dense projection of a smooth curve
    c = np.linalg.lstsq(base.Bq, np.exp(0.3 * base.q_nodes), rcond=None)[0]
    pen10 = base.terms(c, spec.theta)[1]
    pen20 = CollocationProblem(basis, obs, OM, spec, PenaltySpec(lam=1.0),
                               n_quad=20).terms(c, spec.theta)[1]
    assert abs(pen20 - pen10) < 1e-8


def test_basis_nesting_never_hurts():
    times = np.linspace(0.0, 2.0, 25)
    y = np.exp(0.3 * times) + 0.03 * stream(8).standard_normal(25)
    obs = NoisyObservationSet(times=times, y_values=y)
    om = ObservationModel(kind="gaussian", scale=0.03)
    pen = PenaltySpec(lam=10.0)
    fit_small, _ = collocation_fit(obs, om, gbm_beta_spec(0.4, 1.0),
                                   BasisConfig.from_times(times), pen, max_outer=60)
    refined = np.sort(np.concatenate([times, 0.5 * (times[:-1] + times[1:])]))
    fit_big, _ = collocation_fit(obs, om, gbm_beta_spec(0.4, 1.0),
                                 BasisConfig(knots=refined), pen, max_outer=60)
    assert fit_big.objective_value <= fit_small.objective_value + 1e-6


def test_working_gradient_matches_central_difference():
    obs = _line_obs(noise=0.05, key=(9,))
    basis = BasisConfig.from_times(TIMES)
    spec = _const_drift_spec()
    prob = CollocationProblem(basis, obs, OM, spec, PenaltySpec(lam=5.0))
    c = stream(10).standard_normal(basis.n_basis)
    working = prob.working_gradient_c(c, spec.theta)
    central = np.empty_like(c)
    for i in range(len(c)):
        h = 1e-6 * max(1.0, abs(c[i]))
        cp, cm = c.copy(), c.copy()
        cp[i] += h
        cm[i] -= h
        central[i] = (prob.objective(cp, spec.theta)
                      - prob.objective(cm, spec.theta)) / (2 * h)
    denom = np.maximum(np.abs(central), 1e-8)
    assert np.max(np.abs(working - central) / denom) < 1e-4


def _two_column_link(states):
    x = states[..., [0]]
    return np.concatenate([x, 2.0 * x + 0.1 * x**2], axis=-1)


LINKS = {
    "none": None,
    "projection": projection_link([0]),
    "cubic": lambda states: states[..., [0]] + 0.1 * states[..., [0]] ** 3,
    "two_column": _two_column_link,
}
DRIFTS = {
    "linear": (lambda x, th: th[0] * x, [0.3]),
    "ou": (lambda x, th: -th[0] * (x - th[1]), [1.5, 1.2]),
    "logistic": (lambda x, th: th[0] * x * (1.0 - x / th[1]), [0.8, 2.5]),
}


def _central_difference_c(prob, c, theta):
    grad = np.empty_like(c)
    for i in range(len(c)):
        h = 1e-5 * max(1.0, abs(c[i]))
        cp, cm = c.copy(), c.copy()
        cp[i] += h
        cm[i] -= h
        grad[i] = (prob.objective(cp, theta) - prob.objective(cm, theta)) / (cp[i] - cm[i])
    return grad


@settings(max_examples=40, deadline=None)
@example(drift="logistic", weight_mode="sigma_weighted", kind="student_t", link="two_column",
         lam=5.0, sigma_slope=1.0, seed=7)
@given(drift=st.sampled_from(sorted(DRIFTS)),
       weight_mode=st.sampled_from(["unweighted", "sigma_weighted"]),
       kind=st.sampled_from(["gaussian", "student_t"]),
       link=st.sampled_from(sorted(LINKS)),
       lam=st.floats(min_value=0.1, max_value=100.0),
       sigma_slope=st.floats(min_value=0.0, max_value=2.0),
       seed=st.integers(min_value=0, max_value=10_000))
def test_analytic_gradient_matches_central_difference(drift, weight_mode, kind, link,
                                                      lam, sigma_slope, seed):
    times = np.linspace(0.0, 2.0, 15)
    rng = stream(12, seed)
    y = 1.0 + 0.5 * np.sin(times) + 0.05 * rng.standard_normal(len(times))
    y_obs = y
    if link == "two_column":
        # both columns enter the data term and its score
        y_obs = _two_column_link(y[:, None]) + 0.05 * rng.standard_normal((len(times), 2))
    obs = NoisyObservationSet(times=times, y_values=y_obs)
    om = ObservationModel(kind=kind, scale=0.1, dof=4.0 if kind == "student_t" else None,
                          link=LINKS[link])
    mu, theta = DRIFTS[drift]
    # state-dependent diffusion, bounded away from zero
    spec = DiffusionSpec(drift=mu, diffusion=lambda x, th: 0.4 + sigma_slope * x**2,
                         theta=theta, x0=[1.0])
    basis = BasisConfig.from_times(times)
    prob = CollocationProblem(basis, obs, om, spec, PenaltySpec(lam=lam, weight_mode=weight_mode))
    c = (np.linalg.lstsq(prob.B_obs, y, rcond=None)[0]
         + 0.2 * rng.standard_normal(basis.n_basis))
    analytic = prob.working_gradient_c(c, spec.theta)
    central = _central_difference_c(prob, c, spec.theta)
    assert np.max(np.abs(analytic - central)) <= 1e-6 * np.max(np.abs(central))


def test_link_with_one_mean_per_state_fits_like_the_column_link():
    # a link returning shape (n,) is one observation column, not a row
    # broadcast against every observation
    times = np.linspace(0.0, 2.0, 30)
    obs = NoisyObservationSet(times=times, y_values=np.exp(0.3 * times))
    fits = [collocation_fit(obs, ObservationModel(kind="gaussian", scale=1e-3, link=link),
                            gbm_beta_spec(0.5, 1.0), BasisConfig.from_times(times),
                            PenaltySpec(lam=100.0))[0]
            for link in (lambda s: s[..., 0], projection_link([0]))]
    assert fits[0].theta_hat[0] == pytest.approx(0.3, rel=1e-6)
    assert np.array_equal(fits[0].theta_hat, fits[1].theta_hat)
    assert fits[0].objective_value == fits[1].objective_value


def _doubled_growth_problem():
    times = np.linspace(0.0, 2.0, 30)
    x = np.exp(0.3 * times)
    obs = NoisyObservationSet(times=times, y_values=np.column_stack([x, 2.0 * x]))
    om = ObservationModel(kind="gaussian", scale=1e-3,
                          link=lambda s: np.concatenate([s[..., [0]], 2.0 * s[..., [0]]], axis=-1))
    return obs, om, gbm_beta_spec(0.5, 1.0), BasisConfig.from_times(times)


def test_every_observation_column_is_fitted():
    # y = (x, 2x) under the link x -> (x, 2x): the fit recovers x itself, not
    # the 0.6 x that fitting column 1 against both link columns gives
    obs, om, spec, basis = _doubled_growth_problem()
    fit, path = collocation_fit(obs, om, spec, basis, PenaltySpec(lam=100.0))
    assert fit.converged
    assert np.max(np.abs(path.values[:, 0] - np.exp(0.3 * path.times))) < 1e-6
    assert fit.theta_hat[0] == pytest.approx(0.3, rel=1e-6)


@pytest.mark.parametrize("link", [None, lambda s: np.concatenate([s, s, s], axis=-1)])
def test_link_width_other_than_observation_columns_raises(link):
    obs, _, spec, basis = _doubled_growth_problem()
    om = ObservationModel(kind="gaussian", scale=1e-3, link=link)
    with pytest.raises(DataFormatError, match="2 column"):
        CollocationProblem(basis, obs, om, spec, PenaltySpec(lam=1.0))
    with pytest.raises(DataFormatError):
        collocation_fit(obs, om, spec, basis, PenaltySpec(lam=1.0))


def test_gradient_accepts_fields_written_as_scalars():
    # lambda x, th: th[0] is a valid constant drift elsewhere in the toolkit
    obs = _line_obs(noise=0.05, key=(15,))
    basis = BasisConfig.from_times(TIMES)
    spec = DiffusionSpec(drift=lambda x, th: th[0], diffusion=lambda x, th: 0.5,
                         theta=[0.4], x0=[0.0])
    prob = CollocationProblem(basis, obs, OM, spec,
                              PenaltySpec(lam=5.0, weight_mode="sigma_weighted"))
    c = np.linalg.lstsq(prob.B_obs, obs.y_values, rcond=None)[0]
    central = _central_difference_c(prob, c, spec.theta)
    analytic = prob.working_gradient_c(c, spec.theta)
    assert np.max(np.abs(analytic - central)) <= 1e-6 * np.max(np.abs(central))


def test_gradient_makes_no_objective_calls(monkeypatch):
    obs = _line_obs(noise=0.05, key=(13,))
    basis = BasisConfig.from_times(TIMES)
    spec = _const_drift_spec()
    calls = []
    for name in ("objective", "terms"):
        original = getattr(CollocationProblem, name)
        monkeypatch.setattr(CollocationProblem, name,
                            lambda self, *a, _f=original, _n=name: calls.append(_n) or _f(self, *a))
    for mode in ("unweighted", "sigma_weighted"):
        prob = CollocationProblem(basis, obs, OM, spec, PenaltySpec(lam=5.0, weight_mode=mode))
        grad = prob.working_gradient_c(stream(14).standard_normal(basis.n_basis), spec.theta)
        assert grad.shape == (basis.n_basis,)
    assert calls == []


def test_gradient_rejects_zero_sigma_when_weighted():
    basis = BasisConfig.from_times(TIMES)
    spec = DiffusionSpec(drift=lambda x, th: th[0] * x, diffusion=lambda x, th: 0.0 * x,
                         theta=[0.4], x0=[1.0])
    prob = CollocationProblem(basis, _line_obs(), OM, spec,
                              PenaltySpec(lam=1.0, weight_mode="sigma_weighted"))
    with pytest.raises(WeightSingularityError):
        prob.working_gradient_c(np.ones(basis.n_basis), spec.theta)


def _growth_problem(n=20):
    times = np.linspace(0.0, 2.0, n)
    obs = NoisyObservationSet(times=times, y_values=np.exp(0.3 * times))
    return obs, ObservationModel(kind="gaussian", scale=1e-6), BasisConfig.from_times(times)


def test_non_finite_start_raises_invalid_start():
    obs, om, basis = _growth_problem()
    spec = DiffusionSpec(drift=lambda x, th: np.exp(th[0] * x),
                         diffusion=lambda x, th: np.ones_like(x), theta=[1000.0], x0=[1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidStartError):
        collocation_fit(obs, om, spec, basis, PenaltySpec(lam=1.0), max_outer=3)


def test_fit_reports_inner_evaluation_counts():
    obs, om, basis = _growth_problem(50)
    fit, _ = collocation_fit(obs, om, gbm_beta_spec(0.5, 1.0), basis, PenaltySpec(lam=1e4))
    inner, grads = fit.diagnostics["inner_iterations"], fit.diagnostics["gradient_evaluations"]
    assert type(inner) is int and type(grads) is int
    assert fit.iterations <= inner <= grads
    # the closed-form gradient leaves the optimizer's own tolerance as the limit
    assert abs(fit.theta_hat[0] - 0.3) / 0.3 <= 1e-6


def test_weighted_and_unweighted_fits_agree_with_rescaled_lambda():
    # constant sigma: sigma_weighted at lam equals unweighted at lam/sigma^2
    times = np.linspace(0.0, 2.0, 30)
    y = np.exp(0.3 * times) + 0.03 * stream(11).standard_normal(30)
    obs = NoisyObservationSet(times=times, y_values=y)
    om = ObservationModel(kind="gaussian", scale=0.03)
    sig = 0.5
    spec = DiffusionSpec(drift=lambda x, th: th[0] * x,
                         diffusion=lambda x, th: sig * np.ones_like(x),
                         theta=[0.4], x0=[1.0])
    basis = BasisConfig.from_times(times)
    fit_w, _ = collocation_fit(obs, om, spec, basis,
                               PenaltySpec(lam=50.0, weight_mode="sigma_weighted"),
                               max_outer=80)
    fit_u, _ = collocation_fit(obs, om, spec, basis,
                               PenaltySpec(lam=50.0 / sig**2), max_outer=80)
    assert fit_w.theta_hat[0] == pytest.approx(fit_u.theta_hat[0], abs=1e-4)
    assert fit_w.objective_value == pytest.approx(fit_u.objective_value, rel=1e-6)


def test_map_equivalent_sigma_values():
    assert map_equivalent_sigma(0.5) == 1.0
    assert map_equivalent_sigma(2.0) == 0.5


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_map_equivalent_sigma_round_trip(lam):
    sigma = map_equivalent_sigma(lam)
    assert 1.0 / (2.0 * sigma**2) == pytest.approx(lam, rel=1e-15)


def test_map_equivalent_sigma_requires_positive():
    with pytest.raises(ValueError):
        map_equivalent_sigma(0.0)


def _linspace_nodes(knots, n_sub):
    # the per-interval construction the vectorised nodes must reproduce
    nodes, weights = [], []
    for a, b in zip(knots[:-1], knots[1:]):
        h = (b - a) / n_sub
        w = np.full(n_sub + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        nodes.append(np.linspace(a, b, n_sub + 1))
        weights.append(w * h / 3.0)
    return np.concatenate(nodes), np.concatenate(weights)


def test_quadrature_nodes_equal_per_interval_linspace_bytes():
    rng = stream(30)
    for trial in range(2000):
        n_knots = int(rng.integers(2, 60))
        scale = 10.0 ** rng.uniform(-6, 6)
        knots = np.cumsum(scale * rng.uniform(1e-3, 1.0, n_knots)) + rng.normal(0.0, scale)
        n_sub = int(rng.choice([2, 4, 10, 20]))
        got = _quadrature_nodes(BasisConfig(knots=knots), n_sub)
        want = _linspace_nodes(knots, n_sub)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), trial


def _random_fit_problem(drift, weight_mode, link, lam, seed):
    times = np.linspace(0.0, 2.0, 15)
    rng = stream(31, seed)
    y = 1.0 + 0.5 * np.sin(times) + 0.05 * rng.standard_normal(len(times))
    y_obs = _two_column_link(y[:, None]) if link == "two_column" else y
    obs = NoisyObservationSet(times=times, y_values=y_obs)
    om = ObservationModel(kind="gaussian", scale=0.1, link=LINKS[link])
    mu, theta = DRIFTS[drift]
    spec = DiffusionSpec(drift=mu, diffusion=lambda x, th: 0.4 + x**2, theta=theta, x0=[1.0])
    prob = CollocationProblem(BasisConfig.from_times(times), obs, om, spec,
                              PenaltySpec(lam=lam, weight_mode=weight_mode))
    c = np.linalg.lstsq(prob.B_obs, y, rcond=None)[0] + 0.2 * rng.standard_normal(len(y) + 2)
    v = np.concatenate([c, np.asarray(theta) + 0.1 * rng.standard_normal(len(theta))])
    return prob, v


def _central_difference_v(prob, v, h_rel=1e-5):
    k = prob.basis.n_basis
    f = lambda w: prob.objective(w[:k], w[k:])  # noqa: E731
    grad = np.empty_like(v)
    for i in range(len(v)):
        e = np.zeros_like(v)
        e[i] = h_rel * max(1.0, abs(v[i]))
        grad[i] = (f(v + e) - f(v - e)) / (2.0 * e[i])
    return grad


def _densified_system(prob, v):
    """gauss_newton_system's gradient and its matrix assembled densely from the
    band (LAPACK upper storage: row 3 - d holds superdiagonal d), c-theta and theta blocks."""
    grad, band, cross, hess_theta = prob.gauss_newton_system(v)
    upper = sum(np.diag(band[3 - d, d:], d) for d in range(4))
    c_block = upper + np.triu(upper, 1).T
    return grad, np.block([[c_block, cross], [cross.T, hess_theta]])


def _dense_gauss_newton_matrix(prob, v):
    # the dense formula the banded system replaces: B_obs^T diag(sum (dm/dx)^2 / scale^2)
    # B_obs + 2 lam J^T W J over the full (nodes x (k + p)) quadrature Jacobian J
    k = prob.basis.n_basis
    c, theta = v[:k], v[k:]
    _, dm, _, slope, sig, x_q, dx_q = prob._linearize(c, theta)
    jac_theta = [(prob._residual(x_q, dx_q, theta + e) - prob._residual(x_q, dx_q, theta - e))
                 / (2.0 * e.sum()) for e in np.diag(1e-6 * np.maximum(np.abs(theta), 1.0))]
    jac = np.column_stack([(prob.dBq - slope[:, None] * prob.Bq) / sig[:, None]] + jac_theta)
    scaled = np.sqrt(2.0 * prob.pen.lam * prob.q_weights)[:, None] * jac
    hess = scaled.T @ scaled
    hess[:k, :k] += (prob.B_obs.T * (dm**2).sum(axis=1) / prob.om.scale**2) @ prob.B_obs
    return hess


@settings(max_examples=40, deadline=None)
@given(drift=st.sampled_from(sorted(DRIFTS)),
       weight_mode=st.sampled_from(["unweighted", "sigma_weighted"]),
       link=st.sampled_from(sorted(LINKS)),
       lam=st.floats(min_value=0.1, max_value=100.0),
       seed=st.integers(min_value=0, max_value=10_000))
def test_gauss_newton_gradient_matches_central_difference(drift, weight_mode, link, lam, seed):
    prob, v = _random_fit_problem(drift, weight_mode, link, lam, seed)
    grad, hess = _densified_system(prob, v)
    central = _central_difference_v(prob, v)
    assert np.max(np.abs(grad - central)) <= 1e-6 * np.max(np.abs(central))
    assert np.allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.max(np.abs(hess)))


def _affine_drift_problem(n=15, seed=0):
    # mu = theta - 0.7 x is linear in (x, theta): the residual is linear in
    # (c, theta), so the objective is quadratic and H its Hessian
    times = np.linspace(0.0, 2.0, n)
    y = 1.0 + 0.5 * np.sin(times) + 0.05 * stream(32, seed).standard_normal(n)
    spec = DiffusionSpec(drift=lambda x, th: th[0] - 0.7 * x,
                         diffusion=lambda x, th: np.ones_like(x), theta=[0.3], x0=[1.0])
    return (NoisyObservationSet(times=times, y_values=y), ObservationModel(kind="gaussian", scale=0.1),
            spec, BasisConfig.from_times(times), PenaltySpec(lam=5.0))


def test_gauss_newton_matrix_is_the_hessian_of_an_affine_drift():
    obs, om, spec, basis, pen = _affine_drift_problem()
    prob = CollocationProblem(basis, obs, om, spec, pen)
    v = np.concatenate([np.linalg.lstsq(prob.B_obs, obs.y_values, rcond=None)[0], [0.9]])
    _, hess = _densified_system(prob, v)
    k = len(v)
    central = np.empty((k, k))
    for i in range(k):  # central differences of the (central-difference) gradient
        e = np.zeros(k)
        e[i] = 1e-3 * max(1.0, abs(v[i]))
        central[i] = (_central_difference_v(prob, v + e, 1e-3)
                      - _central_difference_v(prob, v - e, 1e-3)) / (2.0 * e[i])
    assert np.max(np.abs(hess - central)) <= 1e-6 * np.max(np.abs(hess))
    fit, _ = collocation_fit(obs, om, spec, basis, pen)
    assert fit.diagnostics["optimizer"] == "gauss-newton"
    assert fit.converged and fit.iterations <= 3
    assert fit.iterations == fit.diagnostics["inner_iterations"] \
        == fit.diagnostics["gradient_evaluations"]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(weight_mode=st.sampled_from(["unweighted", "sigma_weighted"]),
       lam=st.sampled_from([0.1, 10.0, 1e3]),
       n_knots=st.integers(min_value=2, max_value=9),
       seed=st.integers(min_value=0, max_value=10_000))
def test_banded_gauss_newton_matrix_equals_the_dense_formula(weight_mode, lam, n_knots, seed):
    # non-uniform knots, fewer than the observations: several observations and
    # quadrature nodes fall in each knot span, the end observations on knots
    rng = stream(33, seed)
    times = np.concatenate([[0.0, 2.0], np.sort(rng.uniform(0.0, 2.0, 2 * n_knots + 3))])
    times.sort()
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 1.9, n_knots - 2)), [2.0]])
    y = 1.0 + 0.5 * np.sin(times) + 0.05 * rng.standard_normal(len(times))
    for drift in sorted(DRIFTS):
        for link in sorted(LINKS):
            y_obs = _two_column_link(y[:, None]) if link == "two_column" else y
            obs = NoisyObservationSet(times=times, y_values=y_obs)
            om = ObservationModel(kind="gaussian", scale=0.1, link=LINKS[link])
            mu, theta = DRIFTS[drift]
            spec = DiffusionSpec(drift=mu, diffusion=lambda x, th: 0.4 + x**2, theta=theta,
                                 x0=[1.0])
            prob = CollocationProblem(BasisConfig(knots=knots), obs, om, spec,
                                      PenaltySpec(lam=lam, weight_mode=weight_mode))
            c = (np.linalg.lstsq(prob.B_obs, y, rcond=None)[0]
                 + 0.2 * rng.standard_normal(prob.basis.n_basis))
            v = np.concatenate([c, np.asarray(theta) + 0.1 * rng.standard_normal(len(theta))])
            _, hess = _densified_system(prob, v)
            dense = _dense_gauss_newton_matrix(prob, v)
            assert np.max(np.abs(hess - dense)) <= 1e-12 * np.max(np.abs(dense)), (drift, link)


def test_gauss_newton_step_solves_the_dense_system():
    prob, v = _random_fit_problem("logistic", "sigma_weighted", "two_column", 10.0, 3)
    grad, hess = _densified_system(prob, v)
    step = prob.gauss_newton_step(v)
    assert np.max(np.abs(hess @ step + grad)) <= 1e-10 * np.max(np.abs(grad))


def test_non_positive_definite_c_block_stalls_into_the_alternation():
    # with lambda 0 no term reaches the basis functions on knot spans past the last
    # observation: their rows of the c-block are zero, so the banded Cholesky fails, the
    # step raises, and the fit falls back to the joint L-BFGS-B pass from the same start
    times = np.linspace(0.0, 1.0, 10)
    obs = NoisyObservationSet(times=times, y_values=np.exp(0.3 * times))
    basis, spec = BasisConfig(knots=np.linspace(0.0, 4.0, 9)), gbm_beta_spec(0.5, 1.0)
    pen = PenaltySpec(lam=0.0)
    prob = CollocationProblem(basis, obs, OM, spec, pen)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        prob.gauss_newton_step(np.concatenate([np.ones(basis.n_basis), spec.theta]))
    fit, _ = collocation_fit(obs, OM, spec, basis, pen, max_outer=3)
    assert fit.diagnostics["optimizer"] == "l-bfgs-b" and fit.converged


def test_the_start_objective_is_evaluated_once(monkeypatch):
    # the InvalidStartError check's value is descend's f(z0): one call for the start, then
    # one per trial point; this fit takes each of its 6 steps whole (8 calls before)
    calls, objective = [], CollocationProblem.objective

    def counted(self, c, theta):
        calls.append(theta)
        return objective(self, c, theta)
    monkeypatch.setattr(CollocationProblem, "objective", counted)
    fit, _ = collocation_fit(*_pinned_problem("gaussian"))
    assert fit.diagnostics["optimizer"] == "gauss-newton"
    assert len(calls) == 1 + fit.iterations == 7


def _pinned_problem(kind):
    times = np.linspace(0.0, 2.0, 20)
    y = np.exp(0.3 * times) + 0.05 * stream(21).standard_normal(20)
    om = ObservationModel(kind=kind, scale=0.05, dof=4.0 if kind == "student_t" else None)
    return (NoisyObservationSet(times=times, y_values=y), om, gbm_beta_spec(0.5, 1.0),
            BasisConfig.from_times(times), PenaltySpec(lam=10.0, weight_mode="sigma_weighted"))


def _stall(monkeypatch):
    def singular(self, v):
        raise np.linalg.LinAlgError("forced stall")
    monkeypatch.setattr(CollocationProblem, "gauss_newton_step", singular)


@pytest.mark.parametrize("kind, stall, digest", [
    # the joint L-BFGS-B pass, without its "optimizer" key: a Student-t fit, and a
    # Gaussian one whose Gauss-Newton pass stalls
    ("student_t", False, "5519f66681c3d5a6a9aa6d07ffaf3d5748adb34d3e7613cfbbb61861dfb669de"),
    ("gaussian", True, "c6e5bc938270be419ab829eda467fd8bace40b96df52b1669ed578cd86cb17d9"),
])
def test_joint_fit_keeps_its_pinned_digest(monkeypatch, kind, stall, digest):
    if stall:
        _stall(monkeypatch)
    fit, _ = collocation_fit(*_pinned_problem(kind))
    payload = fit.to_json_dict()
    assert payload["diagnostics"].pop("optimizer") == "l-bfgs-b"
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == digest


def _logistic_student_t_problem():
    times = np.linspace(0.0, 2.0, 20)
    noise = stream(41, "logistic", "none", "unweighted", 1000).standard_t(4.0, 20)
    y = 1.0 + 0.5 * np.sin(1.5 * times) + 0.3 * times + 0.05 * noise
    mu, theta = DRIFTS["logistic"]
    spec = DiffusionSpec(drift=mu, diffusion=lambda x, th: 0.4 + x**2, theta=theta, x0=[1.0])
    return (NoisyObservationSet(times=times, y_values=y),
            ObservationModel(kind="student_t", scale=0.05, dof=4.0), spec,
            BasisConfig.from_times(times), PenaltySpec(lam=1000.0))


def test_student_t_fit_converges_past_two_hundred_iterations():
    # the alternation this pass replaced stopped here unconverged after 200 outer iterations
    fit, _ = collocation_fit(*_logistic_student_t_problem())
    assert fit.converged and fit.diagnostics["optimizer"] == "l-bfgs-b"


@pytest.mark.parametrize("problem", [lambda: _pinned_problem("student_t"),
                                     _logistic_student_t_problem], ids=["pinned", "logistic"])
def test_gradient_is_the_gauss_newton_systems_to_the_bit(monkeypatch, problem):
    # the L-BFGS-B pass asks for the gradient alone; at every point it asks
    # for, that equals the gradient of the full system byte for byte
    gradient, asked = CollocationProblem.gradient, []

    def recorded(self, v):
        asked.append((self, v.copy()))
        return gradient(self, v)
    monkeypatch.setattr(CollocationProblem, "gradient", recorded)
    fit, _ = collocation_fit(*problem())
    monkeypatch.undo()
    assert fit.diagnostics["optimizer"] == "l-bfgs-b" and len(asked) > 20
    for prob, v in asked:
        assert prob.gradient(v)[0].tobytes() == prob.gauss_newton_system(v)[0].tobytes()


@pytest.mark.parametrize("drift", sorted(DRIFTS))
@pytest.mark.parametrize("weight_mode", ["unweighted", "sigma_weighted"])
@pytest.mark.parametrize("link", ["none", "cubic", "two_column"])
def test_gauss_newton_ends_no_higher_than_the_alternation(monkeypatch, drift, weight_mode, link):
    prob, _ = _random_fit_problem(drift, weight_mode, link, 10.0, 0)
    args = (prob.obs, prob.om, prob.spec, prob.basis, prob.pen)
    fit, _ = collocation_fit(*args, max_outer=60)
    _stall(monkeypatch)
    joint, _ = collocation_fit(*args, max_outer=60)
    assert joint.diagnostics["optimizer"] == "l-bfgs-b"
    if fit.diagnostics["optimizer"] == "gauss-newton":
        f_joint = joint.objective_value
        assert fit.objective_value <= f_joint + 1e-9 * max(1.0, abs(f_joint))


def test_non_finite_trial_point_is_rejected(monkeypatch):
    # a NaN objective at the first trial point must halve the step, not be
    # accepted: NaN > f is False, so it would pass a plain comparison
    obs, om, basis = _growth_problem(30)
    spec, pen = gbm_beta_spec(0.5, 1.0), PenaltySpec(lam=100.0)
    reference, _ = collocation_fit(obs, om, spec, basis, pen)
    objective, thetas = CollocationProblem.objective, []

    def nan_at_first_trial(self, c, theta):
        thetas.append(float(theta[0]))
        if len([t for t in thetas if t != 0.5]) == 1:  # the first point away from the start
            return np.nan
        return objective(self, c, theta)
    monkeypatch.setattr(CollocationProblem, "objective", nan_at_first_trial)
    fit, _ = collocation_fit(obs, om, spec, basis, pen)
    poisoned = next(i for i, t in enumerate(thetas) if t != 0.5)
    assert thetas[poisoned + 1] == pytest.approx(0.5 + 0.5 * (thetas[poisoned] - 0.5), rel=1e-12)
    assert fit.diagnostics["optimizer"] == "gauss-newton" and np.isfinite(fit.objective_value)
    assert fit.objective_value <= reference.objective_value + 1e-9 * abs(reference.objective_value)
    assert fit.theta_hat[0] == pytest.approx(reference.theta_hat[0], rel=1e-8)
