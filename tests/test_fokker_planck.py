import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf

from driftlab import fokker_planck
from driftlab.densities import gbm_transition_logdensity
from driftlab.errors import InvalidGridError
from driftlab.fokker_planck import (
    _spatial_operator,
    fokker_planck_solve,
    fokker_planck_transition_density,
    report_rows,
)
from driftlab.likelihood import FokkerPlanckDensity, mle_fit
from driftlab.models import DiffusionSpec, GbmParams, gbm_beta_spec, gbm_spec
from driftlab.observe import ObservationSet

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
    assert fokker_planck_solve(BM, [0.25], [0.3], grid)[0].min() >= -1e-9


def test_coarse_grid_rejected():
    with pytest.raises(InvalidGridError):
        fokker_planck_transition_density(BM, 0.5, 0.0, np.linspace(-5, 5, 30))


def test_x_outside_grid_rejected():
    with pytest.raises(InvalidGridError):
        fokker_planck_transition_density(BM, 0.5, 10.0, np.linspace(-5, 5, 101))


def test_truncation_warning_on_narrow_grid():
    res = fokker_planck_transition_density(BM, 0.5, 0.0, np.linspace(-1.0, 1.0, 101))
    assert res.boundary_warning is not None


def test_report_rows_checks_each_row_of_a_batched_solve():
    # the pair started near the edge truncates, the short one stays inside, and
    # every row reports exactly as its one-pair view does
    grid = np.linspace(-2.0, 2.0, 201)
    dts, xs = [0.5, 0.05], [1.5, 0.0]
    reports = report_rows(fokker_planck_solve(BM, dts, xs, grid), grid)
    assert reports[0].boundary_warning.startswith("boundary truncation")
    assert reports[1].boundary_warning is None
    for report, dt, x in zip(reports, dts, xs):
        one = fokker_planck_transition_density(BM, dt, x, grid)
        assert np.array_equal(report.density, one.density) and report.mass == one.mass
        assert report.boundary_warning == one.boundary_warning


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


def _banded_reference(spec, dt, x, grid, n_time_steps, two_matrix=False):
    """A per-pair solver with one scipy ``solve_banded`` (LAPACK gtsv) per time
    step.  By default it takes the stacked solver's step, p <- 2 A^-1 p - p with
    A = I - (tau/2) L, and squares cell / sigma(x) as an array square does.
    ``two_matrix`` gives the scheme that step replaced: libm pow for the square,
    and a banded product with I + (tau/2) L before each solve."""
    sig_x = float(np.asarray(spec.diffusion(np.array([x]), spec.theta)).reshape(-1)[0])
    mu_x = float(np.asarray(spec.drift(np.array([x]), spec.theta)).reshape(-1)[0])
    j = int(np.searchsorted(grid, x))
    n = len(grid)
    cell = (min(grid[j] - grid[j - 1], grid[min(j + 1, n - 1)] - grid[j]) if j < n - 1
            else grid[j] - grid[j - 1])
    r = cell / sig_x
    t0 = min(r ** 2 if two_matrix else r * r, 0.5 * dt)
    sd0 = sig_x * np.sqrt(t0)
    p = np.exp(-0.5 * ((grid - x - mu_x * t0) / sd0) ** 2) / (sd0 * np.sqrt(2.0 * np.pi))
    p[0] = p[-1] = 0.0
    p /= np.trapezoid(p, grid)
    band = _spatial_operator(spec, grid)
    tau = (dt - t0) / n_time_steps
    eye = np.zeros_like(band)
    eye[1] = 1.0
    lhs, rhs = eye - 0.5 * tau * band, eye + 0.5 * tau * band
    for _ in range(n_time_steps):
        if two_matrix:
            b = rhs[1] * p
            b[:-1] += rhs[0, 1:] * p[1:]
            b[1:] += rhs[2, :-1] * p[:-1]
            p = solve_banded((1, 1), lhs, b)
        else:
            p = 2.0 * solve_banded((1, 1), lhs, p) - p
    return p


def _drifting_bm(mu, sigma):
    return DiffusionSpec(drift=lambda y, th: th[0] * np.ones_like(y),
                         diffusion=lambda y, th: th[1] * np.ones_like(y),
                         theta=[mu, sigma], x0=[0.0])


BM_GRID = np.linspace(-6.0, 6.0, 161)


@st.composite
def _pair_batches(draw):
    n_pairs = draw(st.integers(1, 6))
    if draw(st.booleans()):
        spec = gbm_spec(GbmParams(beta=draw(st.floats(-0.5, 0.5)),
                                  sigma=draw(st.floats(0.1, 0.6))))
        grid, x_range = np.linspace(0.2, 4.0, 161), (0.6, 2.5)
    else:
        spec = _drifting_bm(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.3, 1.5)))
        grid, x_range = BM_GRID, (-2.0, 2.0)
    dts = draw(st.lists(st.floats(0.01, 1.5), min_size=n_pairs, max_size=n_pairs))
    xs = draw(st.lists(st.floats(*x_range), min_size=n_pairs, max_size=n_pairs))
    return spec, np.array(dts), np.array(xs), grid


@settings(max_examples=40)
@given(batch=_pair_batches(), steps=st.sampled_from([1, 3, 25, 50]))
# at x = 1.2, sigma = 0.64, (cell / sigma) ** 2 as libm pow and as an array
# square differ in the last bit, and at dt = 0.05 that bit reaches the density:
# the stacked solve and its bit-for-bit reference must square alike
@example(batch=(_drifting_bm(0.2, 0.64), np.array([0.3, 0.05]), np.array([-1.0, 1.2]), BM_GRID),
         steps=3)
def test_stacked_solve_equals_per_pair_solves(batch, steps):
    # every pair of one stacked solve has the bits of its own one-pair solve
    # and of a per-pair banded solve taking the same step, and lies within
    # 1e-12 of the row maximum of the two-matrix scheme that step replaced
    spec, dts, xs, grid = batch
    rows = fokker_planck_solve(spec, dts, xs, grid, steps)
    for k, (dt, x) in enumerate(zip(dts, xs)):
        one = fokker_planck_transition_density(spec, dt, x, grid, n_time_steps=steps)
        assert np.array_equal(np.clip(rows[k], 0.0, None), one.density)
        assert np.array_equal(rows[k], fokker_planck_solve(spec, [dt], [x], grid, steps)[0])
        assert np.array_equal(rows[k], _banded_reference(spec, dt, x, grid, steps))
        two = _banded_reference(spec, dt, x, grid, steps, two_matrix=True)
        assert np.max(np.abs(rows[k] - two)) <= 1e-12 * np.max(np.abs(two))


def test_one_factorisation_per_logdensities_call(monkeypatch):
    calls = []

    def counting_dgttrf(*args):
        calls.append(len(args[1]))
        return dgttrf(*args)

    monkeypatch.setattr(fokker_planck, "dgttrf", counting_dgttrf)
    fd = FokkerPlanckDensity(gbm_spec(GbmParams(beta=0.1, sigma=0.3)), 0.2, 4.0, 100, 10)
    fd.logdensities([0.5, 0.3, 0.8], [1.0, 1.1, 0.9], [1.1, 0.9, 1.0])
    assert calls == [3 * 101]


def test_two_pair_fokker_planck_fit_keeps_its_pinned_digest():
    # taken at the one-matrix step p <- 2 A^-1 p - p, fitted by Newton steps
    # (theta-hat 0.10106569557293635, 2 iterations); the simplex fit before
    # them gave eac6e7c0... (theta-hat 0.10106568346649875, 40 iterations), and
    # the two-matrix scheme before that 37b2ec29... (theta-hat 0.10106569310487248)
    obs = ObservationSet(times=np.array([0.0, 0.5, 0.87]), values=np.array([1.0, 1.12, 1.05]))
    td = FokkerPlanckDensity(gbm_beta_spec(0.1, 0.3), 0.2, 4.0, 200, 25)
    fit = mle_fit(td, obs, td.theta).to_json_dict()
    assert (hashlib.sha256(json.dumps(fit, sort_keys=True).encode()).hexdigest()
            == "0aa6a54b1cee1712bd2418e6db687241824ea7d78c07751efd176c845b0ab7c0")


@pytest.mark.parametrize("steps", [0, -3])
def test_fewer_than_one_time_step_rejected(steps):
    grid = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(InvalidGridError, match="n_time_steps"):
        fokker_planck_transition_density(BM, 0.5, 0.0, grid, n_time_steps=steps)
    with pytest.raises(InvalidGridError, match="n_time_steps"):
        FokkerPlanckDensity(BM, -5.0, 5.0, 100, steps)


def test_observation_outside_grid_rejected_naming_the_pair():
    fd = FokkerPlanckDensity(gbm_spec(GbmParams(beta=0.1, sigma=0.3)), 0.2, 4.0, 100, 10)
    with pytest.raises(InvalidGridError, match=r"pair 1: y = 4\.5"):
        fd.logdensities([0.5, 0.5, 0.5], [1.0, 1.1, 1.2], [1.1, 4.5, 1.0])
    with pytest.raises(InvalidGridError, match=r"pair 0: y = 0\.1"):
        fd.logdensities([0.5], [1.0], [0.1])


def test_start_gaussian_missing_every_node_rejected():
    # x sits in a wide cell next to a tiny one, so the one-cell start Gaussian
    # is far narrower than the distance to either neighbouring node
    grid = np.sort(np.concatenate([np.linspace(-5.0, 5.0, 101), [0.1 + 1e-7]]))
    with pytest.raises(InvalidGridError, match="pair 0: x = 0.05"):
        fokker_planck_transition_density(BM, 0.5, 0.05, grid)
