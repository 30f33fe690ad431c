import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from driftlab.errors import SimulationDivergedError
from driftlab.models import DiffusionSpec, GbmParams, OuParams, gbm_spec
from driftlab.paths import TimeGrid
from driftlab.rng import replicate_normals, stream
from driftlab.simulate import (
    euler_advance,
    euler_endpoints,
    ou_paths,
    pow_square,
    simulate_gbm_exact,
    simulate_ou,
    simulate_tv_growth,
)

GRID = TimeGrid(0.0, 1.0, 100)


def test_euler_deterministic_recursion():
    # sigma = 0: x_{k+1} = x_k (1 + beta dt), so the endpoint is (1.01)^10
    spec = gbm_spec(GbmParams(beta=0.1, sigma=0.0, x0=1.0))
    end = euler_advance(spec, spec.x0, 0.1, stream(3).standard_normal((10, 1)))
    assert end[0] == pytest.approx(1.1046221254112045, abs=1e-15)


def test_euler_starts_at_x0():
    spec = gbm_spec(GbmParams(beta=0.3, sigma=0.5, x0=2.5))
    states = np.empty((GRID.n_steps + 1, 1))
    euler_advance(spec, spec.x0, GRID.dt, stream(11).standard_normal((GRID.n_steps, 1)),
                  out=states)
    assert states[0, 0] == 2.5


def test_euler_bit_identical_under_seed():
    spec = gbm_spec(GbmParams(beta=0.05, sigma=0.2, x0=1.0))
    a = euler_endpoints(spec, GRID, replicate_normals(99, 3, GRID.n_steps, "seed"))
    b = euler_endpoints(spec, GRID, replicate_normals(99, 3, GRID.n_steps, "seed"))
    assert np.array_equal(a, b)


def test_euler_weak_mean():
    # mean of X_T under Euler converges to x0 e^{beta T}; at dt = 0.01 the
    # bias is well inside 3 Monte Carlo standard errors with 1e5 seeds
    p = GbmParams(beta=0.05, sigma=0.2, x0=1.0)
    spec = gbm_spec(p)
    z = replicate_normals(1234, 100_000, 100, "weakmean")
    ends = euler_endpoints(spec, GRID, z)[:, 0]
    target = np.exp(0.05)
    se = ends.std(ddof=1) / np.sqrt(len(ends))
    assert abs(ends.mean() - target) < 3 * se


def test_euler_endpoints_batch_matches_serial():
    spec = gbm_spec(GbmParams(beta=0.1, sigma=0.3, x0=1.0))
    z = replicate_normals(5, 4, GRID.n_steps, "batch")
    batch = euler_endpoints(spec, GRID, z)
    for r in range(4):
        serial = euler_advance(spec, spec.x0, GRID.dt,
                               stream(5, "batch", r).standard_normal((GRID.n_steps, 1)))
        assert np.array_equal(batch[r], serial)


def test_euler_advance_propagates_nonfinite_and_records_states():
    # per-step lengths; the replicate whose state overflows stays non-finite
    # while the other advances normally
    spec = DiffusionSpec(drift=lambda x, th: x * x, diffusion=lambda x, th: np.ones_like(x),
                         theta=[0.0], x0=[0.0])
    dts = np.array([0.1, 0.2, 0.3])
    z = np.zeros((3, 2, 1))
    out = np.empty((4, 2, 1))
    end = euler_advance(spec, np.array([[1.0], [1e200]]), dts, z, out=out)
    assert np.array_equal(out[-1], end)
    assert out[1, 0, 0] == 1.0 + 0.1 and not np.isfinite(end[1, 0])
    assert np.array_equal(out[0], [[1.0], [1e200]])


@pytest.mark.parametrize("x0", [1.0, 1e200])  # 1e200 overflows to inf and stays so
def test_a_shared_step_row_advances_as_per_step_rows(x0):
    # one (n, J) row that every step shares, taken as row[None], gives the bytes of
    # that row repeated per step and of a plain loop, for contiguous and strided
    # normals and in ``out``
    spec = DiffusionSpec(drift=lambda x, th: x * x, diffusion=lambda x, th: 0.3 * x,
                         theta=[0.0], x0=[0.0])
    n_steps, x = 20, np.full((5, 4), x0)
    row = stream(13, "row").uniform(0.01, 0.05, (5, 4))
    z_pairs_first = stream(13, "z").standard_normal((5, 4, n_steps))
    z = np.ascontiguousarray(z_pairs_first.transpose(2, 0, 1))
    expected = euler_advance(spec, x, np.broadcast_to(row, (n_steps,) + row.shape), z)
    looped = x
    with np.errstate(over="ignore", invalid="ignore"):
        for zk in z:
            looped = looped + looped * looped * row + 0.3 * looped * np.sqrt(row) * zk
    assert looped.tobytes() == expected.tobytes()
    assert np.all(np.isfinite(expected)) == (x0 == 1.0)
    out = np.empty((n_steps + 1,) + row.shape)
    for result in (euler_advance(spec, x, row[None], z),
                   euler_advance(spec, x, row[None], z_pairs_first.transpose(2, 0, 1)),
                   euler_advance(spec, x, row[None], z, out=out), out[-1]):
        assert result.tobytes() == expected.tobytes()


def test_gbm_exact_noise_free():
    p = GbmParams(beta=0.3, sigma=0.0, x0=2.0)
    path = simulate_gbm_exact(p, GRID, 7)
    assert np.allclose(path.values[:, 0], 2.0 * np.exp(0.3 * path.times), rtol=1e-14)


def test_gbm_exact_drift_cancellation():
    # beta = sigma^2/2 makes log(X_t/x0) a martingale with mean 0
    p = GbmParams(beta=0.08, sigma=0.4, x0=1.0)
    ends = np.array([
        np.log(simulate_gbm_exact(p, TimeGrid(0.0, 1.0, 8), (21, r)).values[-1, 0])
        for r in range(4000)
    ])
    se = ends.std(ddof=1) / np.sqrt(len(ends))
    assert abs(ends.mean()) < 3 * se


def test_gbm_exact_lognormal_variance():
    # var log(X_T/x0) = sigma^2 T = 0.18 at beta=0.1, sigma=0.3, T=2
    p = GbmParams(beta=0.1, sigma=0.3, x0=1.0)
    grid = TimeGrid(0.0, 2.0, 4)
    z = replicate_normals(77, 100_000, grid.n_steps, "logvar")
    logs = (p.beta - 0.5 * p.sigma**2) * 2.0 + p.sigma * np.sqrt(grid.dt) * z.sum(axis=1)
    # sanity: the batch formula reproduces the simulator exactly
    for r in range(3):
        sim = simulate_gbm_exact(p, grid, (77, "logvar", r)).values[-1, 0]
        assert sim == pytest.approx(np.exp(logs[r]), rel=1e-14)
    var = logs.var(ddof=1)
    se = 0.18 * np.sqrt(2.0 / (len(logs) - 1))
    assert abs(var - 0.18) < 4 * se


def test_gbm_exact_positive():
    p = GbmParams(beta=-0.5, sigma=0.8, x0=0.01)
    assert np.all(simulate_gbm_exact(p, GRID, 13).values > 0)


def test_ou_constant_at_mean():
    p = OuParams(gamma=2.0, beta_bar=0.7, sigma=0.0, b0=0.7)
    path = simulate_ou(p, GRID, 5)
    assert np.allclose(path.values[:, 0], 0.7, atol=1e-15)


def test_ou_deterministic_relaxation():
    p = OuParams(gamma=1.5, beta_bar=0.5, sigma=0.0, b0=2.0)
    path = simulate_ou(p, GRID, 5)
    expected = 0.5 + 1.5 * np.exp(-1.5 * path.times)
    assert np.allclose(path.values[:, 0], expected, rtol=1e-12)


def test_ou_stationary_moments():
    # ergodic averages over a long horizon: mean -> beta_bar, var -> sigma^2/(2 gamma)
    p = OuParams(gamma=1.0, beta_bar=0.5, sigma=0.2, b0=0.5)
    path = simulate_ou(p, TimeGrid(0.0, 2000.0, 20_000), 42)
    vals = path.values[:, 0]
    assert abs(vals.mean() - 0.5) < 0.01
    assert abs(vals.var(ddof=1) - 0.02) < 0.002


def test_ou_marginal_matches_closed_form():
    # KS test of the exact-transition simulator marginal at t=0.5 (level 0.01)
    p = OuParams(gamma=1.0, beta_bar=0.3, sigma=0.4, b0=1.0)
    grid = TimeGrid(0.0, 0.5, 5)
    z = replicate_normals(4321, 10_000, grid.n_steps, "ks")
    ends = ou_paths(p, grid.dt, z)[:, -1]
    mean = 0.3 + 0.7 * np.exp(-0.5)
    var = 0.16 * (1 - np.exp(-1.0)) / 2.0
    _, pvalue = stats.kstest(ends, stats.norm(mean, np.sqrt(var)).cdf)
    assert pvalue > 0.01


def test_ou_batch_matches_serial():
    p = OuParams(gamma=1.0, beta_bar=0.3, sigma=0.4, b0=1.0)
    grid = TimeGrid(0.0, 1.0, 10)
    z = replicate_normals(9, 3, grid.n_steps, "oubatch")
    batch = ou_paths(p, grid.dt, z)
    for r in range(3):
        serial = simulate_ou(p, grid, (9, "oubatch", r)).values[:, 0]
        assert np.array_equal(batch[r], serial)


def test_ou_paths_per_step_dt_matches_scalar_dt():
    p = OuParams(gamma=1.0, beta_bar=0.3, sigma=0.4, b0=1.0)
    z = replicate_normals(10, 3, 8, "oudt")
    assert np.array_equal(ou_paths(p, np.full(8, 0.125), z), ou_paths(p, 0.125, z))


def test_tv_growth_deterministic_limit():
    ou = OuParams(gamma=3.0, beta_bar=0.2, sigma=0.0, b0=0.2)
    _, x_path = simulate_tv_growth(ou, 1.5, GRID, 3)
    assert np.allclose(x_path.values[:, 0], 1.5 * np.exp(0.2 * x_path.times), rtol=1e-12)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25)
def test_tv_growth_strictly_positive(seed):
    ou = OuParams(gamma=0.5, beta_bar=-0.3, sigma=0.6, b0=0.0)
    _, x_path = simulate_tv_growth(ou, 0.5, TimeGrid(0.0, 1.0, 40), seed)
    assert np.all(x_path.values > 0)


def test_tv_growth_log_identity_and_mean():
    # log(X_T/x0) equals the discrete integral of beta exactly, and its mean
    # over replicates is beta_bar * T when b0 = beta_bar
    ou = OuParams(gamma=2.0, beta_bar=0.1, sigma=0.05, b0=0.1)
    grid = TimeGrid(0.0, 3.0, 30)
    beta_path, x_path = simulate_tv_growth(ou, 1.0, grid, 17)
    b = beta_path.values[:, 0]
    assert np.log(x_path.values[-1, 0]) == pytest.approx(np.sum(b[:-1]) * grid.dt, rel=1e-12)

    z = replicate_normals(4055, 100_000, grid.n_steps, "tvg")
    betas = ou_paths(ou, grid.dt, z)
    log_growth = betas[:, :-1].sum(axis=1) * grid.dt
    se = log_growth.std(ddof=1) / np.sqrt(len(log_growth))
    assert abs(log_growth.mean() - 0.1 * 3.0) < 4 * se


def test_tv_growth_overflow_reported():
    # b = 400 and dt = 1: each step multiplies x by e^400, about 5.2e173; the error
    # names the step that overflows, as the per-step loop did
    ou = OuParams(gamma=0.1, beta_bar=400.0, sigma=0.0, b0=400.0)
    for x0, step in ((1e300, 0), (1.0, 1), (1e-300, 3)):
        with pytest.raises(SimulationDivergedError) as err:
            simulate_tv_growth(ou, x0, TimeGrid(0.0, 10.0, 10), 0)
        assert err.value.step == step


def test_tv_growth_values_are_the_step_loops_bytes():
    # sha256 of the x paths of the per-step loop x[k + 1] = x[k] * np.exp(b[k] * dt)
    # that the one cumulative-product recursion replaced, at seeds 0-99
    ou = OuParams(gamma=1.0, beta_bar=0.05, sigma=0.5, b0=0.0)
    digest = hashlib.sha256()
    for seed in range(100):
        digest.update(simulate_tv_growth(ou, 2.0, TimeGrid(0.0, 5.0, 200), seed)[1].values.tobytes())
    assert digest.hexdigest() == "d085f0eb0ab1d1c45c0f24e12a38ab121d8e52861907fd05204cafebd495c87d"


def test_tv_growth_needs_a_positive_finite_x0():
    ou = OuParams(gamma=1.0, beta_bar=0.0, sigma=0.1)
    for x0 in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="x0 must be positive"):
            simulate_tv_growth(ou, x0, GRID, 0)


# numpy's scalar power (libm pow) squares 0x1.8304189ee8af6p-3 to 0x1.248ab1409d6bep-5,
# the array square s * s to ...bdp-5
POW_SIGMA = float.fromhex("0x1.8304189ee8af6p-3")


def test_pow_square_is_the_scalar_power_entry_by_entry():
    rng = stream(21, "pow")
    s = np.concatenate([rng.uniform(0.0, 3.0, 4000), np.exp(rng.uniform(-700.0, 700.0, 4000)),
                        [POW_SIGMA, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e160, 1e-160]])
    with np.errstate(over="ignore", under="ignore"):
        expected = np.array([np.float64(v) ** 2 for v in s])
        for shape in ((len(s),), (len(s), 1), (1, len(s))):
            assert pow_square(s.reshape(shape)).tobytes() == expected.tobytes()
    assert pow_square(np.array([POW_SIGMA]))[0] == pow_square(POW_SIGMA) \
        == float.fromhex("0x1.248ab1409d6bep-5") != POW_SIGMA * POW_SIGMA


def test_strong_order_scaling():
    # paired Euler/exact endpoint RMS error scales ~ sqrt(dt)
    p = GbmParams(beta=0.1, sigma=0.3, x0=1.0)
    spec = gbm_spec(p)
    rms = []
    for n in (50, 100, 200):
        grid = TimeGrid(0.0, 1.0, n)
        z = replicate_normals(31, 10_000, n, "order", n)
        euler_end = euler_endpoints(spec, grid, z)[:, 0]
        exact_end = np.exp((p.beta - 0.5 * p.sigma**2) + p.sigma * np.sqrt(grid.dt) * z.sum(axis=1))
        rms.append(np.sqrt(np.mean((euler_end - exact_end) ** 2)))
    assert 1.2 <= rms[0] / rms[1] <= 1.7
    assert 1.2 <= rms[1] / rms[2] <= 1.7


def test_weak_consistency_bias_shrinks():
    # |mean X_T - x0 e^{beta T}| decreases monotonically as dt is refined
    p = GbmParams(beta=0.5, sigma=0.1, x0=1.0)
    spec = gbm_spec(p)
    target = np.exp(0.5)
    biases = []
    for dt in (0.1, 0.05, 0.025):
        n = round(1.0 / dt)
        z = replicate_normals(55, 20_000, n, "weak", n)
        ends = euler_endpoints(spec, TimeGrid(0.0, 1.0, n), z)[:, 0]
        biases.append(abs(ends.mean() - target))
    assert biases[0] > biases[1] > biases[2]
