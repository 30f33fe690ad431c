import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from driftlab.errors import NumericalSingularityError
from driftlab.kalman import LinearGaussianSSM, kalman_filter, kalman_loglik, ou_to_ssm
from driftlab.models import OuParams
from driftlab.observe import NoisyObservationSet, ObservationModel
from driftlab.paths import TimeGrid
from driftlab.rng import stream
from driftlab.simulate import simulate_ou


def _scalar_ssm(phi, b, q, r, m0, p0, n):
    ones = np.ones(n - 1)
    return LinearGaussianSSM(F=phi * ones, b=b * ones, Q=q * ones, R=r, m0=m0, P0=p0)


def test_single_observation_closed_form():
    # one observation of x ~ N(m, P) with noise variance R: y ~ N(m, P + R)
    ssm = _scalar_ssm(phi=1.0, b=0.0, q=0.0, r=0.25, m0=0.4, p0=0.09, n=1)
    obs = NoisyObservationSet(times=[0.0], y_values=[0.7])
    assert kalman_loglik(ssm, obs) == pytest.approx(
        stats.norm.logpdf(0.7, 0.4, np.sqrt(0.34)), rel=1e-12)


def test_zero_noise_identity_dynamics_rejected():
    ssm = _scalar_ssm(phi=1.0, b=0.0, q=0.0, r=0.0, m0=0.0, p0=0.0, n=3)
    obs = NoisyObservationSet(times=[0.0, 1.0, 2.0], y_values=[0.0, 0.0, 0.0])
    with pytest.raises(NumericalSingularityError):
        kalman_loglik(ssm, obs)


@st.composite
def _ssm_and_observations(draw):
    n = draw(st.integers(1, 30))

    def series(low, high, size):
        return np.array(draw(st.lists(st.floats(low, high), min_size=size, max_size=size)),
                        dtype=float)

    ssm = LinearGaussianSSM(F=series(-1.2, 1.2, n - 1), b=series(-2.0, 2.0, n - 1),
                            Q=series(1e-3, 1.0, n - 1), R=draw(st.floats(1e-2, 2.0)),
                            m0=draw(st.floats(-3.0, 3.0)), P0=draw(st.floats(0.0, 2.0)))
    return ssm, series(-10.0, 10.0, n)


@settings(max_examples=60, deadline=None)
@given(case=_ssm_and_observations())
def test_loglik_matches_dense_joint_gaussian(case):
    # brute-force oracle: build the joint Gaussian law of the n observations
    ssm, y = case
    n, phi, b, q, r, m0, p0 = len(y), ssm.F, ssm.b, ssm.Q, ssm.R, ssm.m0, ssm.P0
    mean = np.empty(n)
    cov = np.zeros((n, n))
    mean[0] = m0
    cov[0, 0] = p0
    for k in range(1, n):
        mean[k] = phi[k - 1] * mean[k - 1] + b[k - 1]
        cov[k, :k] = phi[k - 1] * cov[k - 1, :k]
        cov[:k, k] = cov[k, :k]
        cov[k, k] = phi[k - 1] ** 2 * cov[k - 1, k - 1] + q[k - 1]
    cov_y = cov + r * np.eye(n)

    obs = NoisyObservationSet(times=np.arange(n, dtype=float), y_values=y)
    expected = stats.multivariate_normal(mean, cov_y).logpdf(y)
    assert kalman_loglik(ssm, obs) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_ou_to_ssm_equal_gaps_identical_blocks():
    p = OuParams(gamma=1.2, beta_bar=0.3, sigma=0.4, b0=0.0)
    om = ObservationModel(kind="gaussian", scale=0.2)
    ssm = ou_to_ssm(p, om, np.arange(6, dtype=float))
    assert np.all(ssm.F == ssm.F[0])
    assert np.all(ssm.Q == ssm.Q[0])
    assert np.all(ssm.b == ssm.b[0])


def test_ou_to_ssm_large_gamma_limit():
    p = OuParams(gamma=200.0, beta_bar=0.0, sigma=0.4, b0=0.0)
    om = ObservationModel(kind="gaussian", scale=0.2)
    ssm = ou_to_ssm(p, om, np.array([0.0, 1.0]))
    assert ssm.F[0] == pytest.approx(0.0, abs=1e-12)
    assert ssm.Q[0] == pytest.approx(0.4**2 / 400.0, rel=1e-10)


def test_ou_to_ssm_requires_gaussian():
    p = OuParams(gamma=1.0, beta_bar=0.0, sigma=0.4, b0=0.0)
    om = ObservationModel(kind="student_t", scale=0.2, dof=4.0)
    with pytest.raises(ValueError):
        ou_to_ssm(p, om, np.array([0.0, 1.0]))


def test_filtered_means_beat_raw_observations():
    p = OuParams(gamma=1.0, beta_bar=0.0, sigma=0.5, b0=0.0)
    grid = TimeGrid(0.0, 20.0, 200)
    latent = simulate_ou(p, grid, (21, "path")).scalar_values()
    scale = 0.35  # comparable to the stationary sd 0.354
    y = latent + scale * stream(21, "noise").standard_normal(len(latent))
    obs = NoisyObservationSet(times=grid.times(), y_values=y)
    om = ObservationModel(kind="gaussian", scale=scale)
    result = kalman_filter(ou_to_ssm(p, om, obs.times), obs.y_values)
    rmse_filter = np.sqrt(np.mean((result.filtered_means - latent) ** 2))
    rmse_raw = np.sqrt(np.mean((y - latent) ** 2))
    assert rmse_filter < rmse_raw


def test_psd_validation():
    with pytest.raises(ValueError, match="Q must be nonnegative"):
        _scalar_ssm(phi=1.0, b=0.0, q=-0.1, r=0.1, m0=0.0, p0=0.0, n=2)
    # a later transition, not the first, carries the bad Q
    Q = np.full(50, 0.1)
    Q[37] = -0.2
    with pytest.raises(ValueError, match="Q must be nonnegative"):
        LinearGaussianSSM(F=np.ones(50), b=np.zeros(50), Q=Q, R=0.1, m0=0.0, P0=1.0)
    with pytest.raises(ValueError, match="R must be nonnegative"):
        _scalar_ssm(phi=1.0, b=0.0, q=0.1, r=-0.1, m0=0.0, p0=0.0, n=5)
    with pytest.raises(ValueError, match="P0 must be nonnegative"):
        _scalar_ssm(phi=1.0, b=0.0, q=0.1, r=0.1, m0=0.0, p0=-1.0, n=5)


def test_mismatched_block_lengths_rejected():
    with pytest.raises(ValueError, match="one entry per step"):
        LinearGaussianSSM(F=np.ones(2), b=np.zeros(1), Q=np.full(2, 0.1), R=0.1, m0=0.0, P0=0.0)
    with pytest.raises(ValueError, match="one entry per step"):
        LinearGaussianSSM(F=np.ones((2, 1)), b=np.zeros(2), Q=np.full(2, 0.1), R=0.1,
                          m0=0.0, P0=0.0)
    ssm = _scalar_ssm(phi=1.0, b=0.0, q=0.1, r=0.1, m0=0.0, p0=0.0, n=3)
    for y in (np.zeros(2), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="3 scalar observations"):
            kalman_filter(ssm, y)


def test_overflowing_innovation_variance_rejected():
    # phi^2 P overflows to inf in the prediction of the second observation
    ssm = _scalar_ssm(phi=1e200, b=0.0, q=0.1, r=0.1, m0=0.0, p0=1.0, n=3)
    with pytest.raises(NumericalSingularityError, match="at step 1"):
        kalman_filter(ssm, np.zeros(3))
