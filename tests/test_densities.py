import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from driftlab.densities import (
    euler_record_logdensity,
    gbm_transition_logdensity,
    logsumexp,
    ou_record_logdensity,
    record_arrays,
)
from driftlab.errors import DegenerateDensityError
from driftlab.models import DiffusionSpec, GbmParams, OuParams, gbm_spec


def test_gbm_zero_mean_case():
    # beta = sigma^2/2: r = log(y/x) ~ Normal(0, sigma^2 dt); at r = 0 the
    # log-density is -log(y sigma sqrt(2 pi dt))
    sigma, dt = 0.4, 0.7
    p = GbmParams(beta=sigma**2 / 2, sigma=sigma, x0=1.0)
    y = 1.3
    val = gbm_transition_logdensity(p, dt, y, y)
    assert val == pytest.approx(-np.log(y * sigma * np.sqrt(2 * np.pi * dt)), rel=1e-14)


@given(st.floats(min_value=-0.3, max_value=0.5), st.floats(min_value=0.1, max_value=0.8),
       st.floats(min_value=0.1, max_value=2.0))
def test_gbm_density_normalizes(beta, sigma, dt):
    p = GbmParams(beta=beta, sigma=sigma, x0=1.0)
    val, _ = quad(lambda y: np.exp(gbm_transition_logdensity(p, dt, 1.0, y)),
                  1e-300, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_gbm_mode_matches_numerical_argmax():
    p = GbmParams(beta=0.1, sigma=0.3, x0=1.0)
    dt = 0.5
    res = minimize_scalar(lambda y: -gbm_transition_logdensity(p, dt, 1.0, y),
                          bracket=(0.5, 1.0, 2.0), method="brent",
                          options={"xtol": 1e-12})
    mode = np.exp((p.beta - 0.5 * p.sigma**2 - p.sigma**2) * dt)
    assert res.x == pytest.approx(mode, rel=1e-8)


def test_gbm_degenerate_sigma():
    with pytest.raises(DegenerateDensityError):
        gbm_transition_logdensity(GbmParams(0.1, 0.0, 1.0), 0.5, 1.0, 1.0)


def test_ou_long_horizon_limit_is_stationary():
    p = OuParams(gamma=2.0, beta_bar=0.4, sigma=0.6, b0=0.0)
    far = ou_record_logdensity(p, record_arrays(200.0, 5.0, 0.3))
    stationary = stats.norm.logpdf(0.3, 0.4, np.sqrt(0.36 / 4.0))
    assert far == pytest.approx(stationary, rel=1e-10)


def test_ou_at_mean_value():
    p = OuParams(gamma=1.0, beta_bar=0.5, sigma=0.3, b0=0.0)
    dt = 0.8
    v = 0.09 * (1 - np.exp(-1.6)) / 2.0
    assert ou_record_logdensity(p, record_arrays(dt, 0.5, 0.5)) == pytest.approx(
        -0.5 * np.log(2 * np.pi * v), rel=1e-14)


@given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2),
       st.floats(min_value=0.05, max_value=3.0))
def test_ou_matches_independent_gaussian_pdf(x, y, dt):
    p = OuParams(gamma=1.0, beta_bar=0.0, sigma=1.0, b0=0.0)
    mean = x * np.exp(-dt)
    var = (1 - np.exp(-2 * dt)) / 2.0
    assert ou_record_logdensity(p, record_arrays(dt, x, y)) == pytest.approx(
        stats.norm.logpdf(y, mean, np.sqrt(var)), rel=1e-12)


def test_ou_degenerate_sigma():
    with pytest.raises(DegenerateDensityError):
        ou_record_logdensity(OuParams(1.0, 0.0, 0.0, 0.0), record_arrays(0.5, 0.0, 0.0))


BM = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                   diffusion=lambda x, th: np.ones_like(x),
                   theta=[0.0], x0=[0.0])


def test_euler_reduces_to_bm_transition():
    assert euler_record_logdensity(BM, record_arrays(0.3, 0.5, 0.9)) == pytest.approx(
        stats.norm.logpdf(0.9, 0.5, np.sqrt(0.3)), rel=1e-14)


def test_euler_close_to_exact_at_small_dt():
    p = GbmParams(beta=0.1, sigma=0.3, x0=1.0)
    spec = gbm_spec(p)
    e = euler_record_logdensity(spec, record_arrays(0.01, 1.0, 1.0))
    g = gbm_transition_logdensity(p, 0.01, 1.0, 1.0)
    assert abs(e - g) < 1e-2


def test_euler_bias_grows_with_dt():
    p = GbmParams(beta=0.3, sigma=0.2, x0=1.0)
    spec = gbm_spec(p)

    def sup_gap(dt):
        y = np.linspace(0.3, 3.0, 400)
        e = np.exp(euler_record_logdensity(spec, record_arrays(dt, 1.0, y)))
        g = np.exp(gbm_transition_logdensity(p, dt, 1.0, y))
        return np.max(np.abs(e - g))

    assert sup_gap(1.0) > sup_gap(0.25)


def test_euler_degenerate_sigma():
    spec = gbm_spec(GbmParams(0.1, 0.5, 1.0))
    with pytest.raises(DegenerateDensityError):
        euler_record_logdensity(spec, record_arrays(0.5, 0.0, 0.1))  # sigma(0) = 0


def test_euler_density_normalizes():
    spec = gbm_spec(GbmParams(beta=0.2, sigma=0.4, x0=1.0))
    val, _ = quad(lambda y: np.exp(euler_record_logdensity(spec, record_arrays(0.3, 1.0, y))),
                  -np.inf, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=300)
@given(rows=st.sampled_from([None, 1, 2, 7]), length=st.integers(1, 300),
       log10_scale=st.floats(-3.0, np.log10(700.0)), ties=st.integers(0, 5),
       neg_inf_share=st.sampled_from([0.0, 0.0, 0.1, 0.6, 1.0]), dead_row=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_logsumexp_equals_scipy_bit_for_bit(rows, length, log10_scale, ties,
                                             neg_inf_share, dead_row, seed):
    # the filter reduces 1-D weights and the bridge reduces (pairs, J) with
    # axis=1; both must stay byte-identical to scipy.special.logsumexp, so a
    # scipy release that changes its arithmetic fails here first
    rng = np.random.default_rng(seed)
    a = 10.0**log10_scale * rng.standard_normal((rows or 1, length))
    row_max = a.max(axis=1, keepdims=True)
    for _ in range(ties):
        a[np.arange(len(a)), rng.integers(0, length, len(a))] = row_max[:, 0]
    a[rng.random(a.shape) < neg_inf_share] = -np.inf
    if dead_row:
        a[rng.integers(0, len(a))] = -np.inf
    a, axis = (a[0], None) if rows is None else (a, 1)
    expected = special.logsumexp(a, axis=axis)
    got = logsumexp(a, axis=axis)
    assert type(got) is type(expected)
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize("a", [[np.nan, 1.0], [np.inf, 1.0], [np.inf, np.inf], [-np.inf],
                               [3.5], [1e308, 1e308], [800.0, 1.0], [-800.0, -801.0]])
def test_logsumexp_edge_values_equal_scipy(a):
    assert np.array_equal(logsumexp(np.array(a)), special.logsumexp(np.array(a)),
                          equal_nan=True)
