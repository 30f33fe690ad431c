import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from driftlab.densities import gbm_transition_logdensity
from driftlab.errors import InvalidGridError
from driftlab.fokker_planck import fokker_planck_transition_density
from driftlab.models import DiffusionSpec, GbmParams, gbm_spec

BM = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                   diffusion=lambda x, th: np.ones_like(x),
                   theta=[0.0], x0=[0.0])


def test_heat_kernel():
    grid = np.linspace(-6.0, 6.0, 401)
    res = fokker_planck_transition_density(BM, 0.5, 0.0, grid)
    exact = stats.norm.pdf(grid, 0.0, np.sqrt(0.5))
    assert np.max(np.abs(res.density - exact)) <= 1e-3
    assert res.mass == pytest.approx(1.0, abs=1e-3)
    assert res.boundary_warning is None


def test_gbm_matches_closed_form():
    p = GbmParams(beta=0.1, sigma=0.2, x0=1.0)
    grid = np.linspace(0.2, 3.0, 401)
    res = fokker_planck_transition_density(gbm_spec(p), 0.5, 1.0, grid, n_time_steps=200)
    exact = np.exp(gbm_transition_logdensity(p, 0.5, 1.0, grid))
    assert np.max(np.abs(res.density - exact)) <= 1e-3
    assert res.mass == pytest.approx(1.0, abs=1e-3)


def test_density_nonnegative_and_clipping_small():
    grid = np.linspace(-6.0, 6.0, 801)
    res = fokker_planck_transition_density(BM, 0.25, 0.3, grid)
    assert np.all(res.density >= 0.0)
    assert res.min_raw_density >= -1e-9


def test_coarse_grid_rejected():
    with pytest.raises(InvalidGridError):
        fokker_planck_transition_density(BM, 0.5, 0.0, np.linspace(-5, 5, 30))


def test_x_outside_grid_rejected():
    with pytest.raises(InvalidGridError):
        fokker_planck_transition_density(BM, 0.5, 10.0, np.linspace(-5, 5, 101))


def test_truncation_warning_on_narrow_grid():
    res = fokker_planck_transition_density(BM, 0.5, 0.0, np.linspace(-1.0, 1.0, 101))
    assert res.boundary_warning is not None


def test_grid_refinement_converges():
    p = GbmParams(beta=0.0, sigma=0.25, x0=1.0)
    spec = gbm_spec(p)
    errs = []
    for cells in (100, 200, 400):
        grid = np.linspace(0.2, 3.0, cells + 1)
        res = fokker_planck_transition_density(spec, 0.5, 1.0, grid, n_time_steps=100)
        exact = np.exp(gbm_transition_logdensity(p, 0.5, 1.0, grid))
        errs.append(np.max(np.abs(res.density - exact)))
    assert errs[0] > errs[1] > errs[2]


@settings(max_examples=30)
@given(mu=st.floats(-1.0, 1.0), sigma=st.floats(0.2, 2.0), dt=st.floats(0.005, 2.0),
       x=st.floats(-1.0, 1.0))
def test_mass_conserved_on_a_grid_wide_enough(mu, sigma, dt, x):
    # Brownian motion with drift; the 400-cell grid spans 10 transition sds
    # beyond both the start and the transition mean
    spec = DiffusionSpec(drift=lambda y, th: th[0] * np.ones_like(y),
                         diffusion=lambda y, th: th[1] * np.ones_like(y),
                         theta=[mu, sigma], x0=[x])
    sd = sigma * np.sqrt(dt)
    lo, hi = min(x, x + mu * dt) - 10 * sd, max(x, x + mu * dt) + 10 * sd
    res = fokker_planck_transition_density(spec, dt, x, np.linspace(lo, hi, 401),
                                           n_time_steps=200)
    assert res.boundary_warning is None
    assert res.mass == pytest.approx(1.0, abs=1e-3)
