"""Forward-equation transition densities for scalar diffusions.

Solves dp/dt = -d(mu p)/dy + (1/2) d^2(sigma^2 p)/dy^2 on a spatial grid by
Crank-Nicolson with zero boundary values.  The point initial condition is
replaced by a one-cell-wide Gaussian; to keep that replacement from biasing
the result, the Gaussian is treated as the short-time kernel already elapsed
at t0 = (cell width / sigma(x))^2 and the PDE is advanced for dt - t0.

``fokker_planck_solve`` advances every observation pair of a call together.
Pair k's Crank-Nicolson matrix I - (tau_k / 2) L is one diagonal block of a
single tridiagonal system A of n_pairs x n_nodes rows; the boundary rows are
identity rows and the couplings between blocks are explicit zeros, so the
blocks stay independent.  A is LU-factored once per call (LAPACK ``dgttrf``).
The right-hand operator I + (tau_k / 2) L is 2I - A, so each time step is one
``dgttrs`` solve and one axpy, p <- 2 A^-1 p - p.  The factorisation and the
elimination order are those of a per-pair tridiagonal solve, so each pair's
density does not depend on which other pairs share the call.
``fokker_planck_transition_density`` is the one-pair view.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import InvalidGridError, UnsupportedDimensionError
from .models import DiffusionSpec

MIN_CELLS = 50
BOUNDARY_DENSITY_TOL = 1e-12


@dataclass(frozen=True)
class FokkerPlanckResult:
    y_grid: np.ndarray
    density: np.ndarray
    mass: float
    boundary_warning: str | None = None
    min_raw_density: float = 0.0


def check_time_steps(n_time_steps) -> None:
    """Raise InvalidGridError unless ``n_time_steps`` is an integer of at least 1."""
    if not isinstance(n_time_steps, Integral) or n_time_steps < 1:
        raise InvalidGridError(f"n_time_steps must be an integer >= 1, got {n_time_steps!r}")


def require_per_pair(ok, error, what: str, name: str, values) -> None:
    """Raise ``error`` naming the first pair k where ``ok[k]`` is False."""
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise error(f"{what} (pair {i}: {name} = {values[i]:g})")


def _derivative_weights(y: np.ndarray):
    """Three-point first/second derivative weights on a possibly nonuniform grid."""
    hm = y[1:-1] - y[:-2]
    hp = y[2:] - y[1:-1]
    denom = hm * hp * (hm + hp)
    d1 = (-(hp**2) / denom, (hp**2 - hm**2) / denom, hm**2 / denom)
    d2 = (2.0 * hp / denom, -2.0 * (hm + hp) / denom, 2.0 * hm / denom)
    return d1, d2


def _spatial_operator(spec: DiffusionSpec, y: np.ndarray) -> np.ndarray:
    """Tridiagonal L with (L p)_j = -d(mu p)/dy + 0.5 d^2(sigma^2 p)/dy^2 at node j,
    returned as banded storage (diagonals: upper, main, lower)."""
    mu = np.asarray(spec.drift(y, spec.theta), dtype=float)
    d = np.asarray(spec.diffusion(y, spec.theta), dtype=float) ** 2
    (a1, b1, c1), (a2, b2, c2) = _derivative_weights(y)
    n = len(y)
    band = np.zeros((3, n))
    # interior rows j = 1..n-2; coefficient on p_{j-1}, p_j, p_{j+1}
    lo = -a1 * mu[:-2] + 0.5 * a2 * d[:-2]
    mid = -b1 * mu[1:-1] + 0.5 * b2 * d[1:-1]
    hi = -c1 * mu[2:] + 0.5 * c2 * d[2:]
    band[0, 2:] = hi
    band[1, 1:-1] = mid
    band[2, :-2] = lo
    # boundary rows stay zero: p is pinned at 0 there
    return band


def _at(f, x: np.ndarray, theta) -> np.ndarray:
    """A drift or diffusion function evaluated at the start states, one value per pair."""
    return np.broadcast_to(np.asarray(f(x, theta), dtype=float).reshape(-1), x.shape)


def _start_densities(spec: DiffusionSpec, dts: np.ndarray, x: np.ndarray,
                     y: np.ndarray) -> tuple:
    """Each pair's one-cell-wide start Gaussian on ``y`` (rows) and its elapsed time t0."""
    sig_x = _at(spec.diffusion, x, spec.theta)
    mu_x = _at(spec.drift, x, spec.theta)
    require_per_pair(sig_x > 0, InvalidGridError,
                     "diffusion must be positive at the initial state", "x", x)
    n = len(y)
    j = np.searchsorted(y, x)
    left = y[j] - y[j - 1]
    cell = np.where(j < n - 1, np.minimum(left, y[np.minimum(j + 1, n - 1)] - y[j]), left)
    t0 = np.minimum((cell / sig_x) ** 2, 0.5 * dts)
    sd0 = sig_x * np.sqrt(t0)
    p = (np.exp(-0.5 * ((y - x[:, None] - (mu_x * t0)[:, None]) / sd0[:, None]) ** 2)
         / (sd0 * np.sqrt(2.0 * np.pi))[:, None])
    p[:, 0] = p[:, -1] = 0.0
    mass = np.trapezoid(p, y, axis=-1)
    require_per_pair(mass > 0, InvalidGridError, "the start Gaussian has no finite mass on "
                     "y_grid (grid too coarse near x, or drift or diffusion not finite)", "x", x)
    p /= mass[:, None]
    return p, t0


def fokker_planck_solve(spec: DiffusionSpec, dts, x, y_grid,
                        n_time_steps: int = 200) -> np.ndarray:
    """Densities of X_{dts[k]} given X_0 = x[k] on ``y_grid``, one row per pair.

    The rows are the raw Crank-Nicolson solution: they may hold negative
    round-off values.  ``y_grid`` must have at least 50 cells and be strictly
    increasing, every x[k] must lie strictly inside it with a positive
    diffusion there, every dts[k] must be positive, and ``n_time_steps`` (the
    steps each pair takes) at least 1.
    """
    if spec.state_dim != 1:
        raise UnsupportedDimensionError("Fokker-Planck solver handles scalar models only")
    check_time_steps(n_time_steps)
    y = np.asarray(y_grid, dtype=float)
    if y.ndim != 1 or len(y) < MIN_CELLS + 1:
        raise InvalidGridError(f"y_grid needs at least {MIN_CELLS} cells")
    if np.any(np.diff(y) <= 0):
        raise InvalidGridError("y_grid must be strictly increasing")
    dts = np.asarray(dts, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    if dts.shape != x.shape:
        raise ValueError(f"{len(dts)} dts for {len(x)} start states")
    require_per_pair(dts > 0, ValueError, "dt must be positive", "dt", dts)
    require_per_pair((y[0] < x) & (x < y[-1]), InvalidGridError,
                     "initial state x must lie inside y_grid", "x", x)

    p, t0 = _start_densities(spec, dts, x, y)
    half_tau = 0.5 * ((dts - t0) / n_time_steps)
    band = _spatial_operator(spec, y)
    if not np.all(np.isfinite(band)):
        raise InvalidGridError("drift or diffusion is not finite on y_grid")
    up, mid, lo = (-half_tau[:, None, None] * band).transpose(1, 0, 2)
    mid += 1.0
    # the stacked A = I - (tau/2) L: block k's first upper and last lower entry
    # couple it to its neighbours, so they are set to 0 (the boundary rows already are)
    up[:, 0] = 0.0
    lo[:, -1] = 0.0
    *factors, info = dgttrf(lo.ravel()[:-1], mid.ravel(), up.ravel()[1:])
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    # the right-hand operator is I + (tau/2) L = 2I - A
    for _ in range(n_time_steps):
        p = 2.0 * dgttrs(*factors, p.reshape(-1, 1))[0].reshape(p.shape) - p
    return p


def fokker_planck_transition_density(spec: DiffusionSpec, dt: float, x: float,
                                     y_grid, n_time_steps: int = 200) -> FokkerPlanckResult:
    """Density of X_{dt} given X_0 = x, evaluated on ``y_grid``.

    ``y_grid`` must have at least 50 cells and span essentially all of the
    transition mass; a boundary-truncation warning is attached when the final
    boundary densities exceed 1e-12.  Negative round-off values are clipped
    to zero on report.
    """
    y = np.asarray(y_grid, dtype=float)
    p = fokker_planck_solve(spec, [dt], [x], y, n_time_steps)[0]
    min_raw = float(p.min())
    p = np.clip(p, 0.0, None)
    mass = float(np.trapezoid(p, y))
    warning = None
    if max(p[0], p[-1], abs(p[1]), abs(p[-2])) > BOUNDARY_DENSITY_TOL:
        warning = ("boundary truncation: final density at the grid edge exceeds "
                   f"{BOUNDARY_DENSITY_TOL:g}; widen y_grid")
    elif abs(mass - 1.0) > 1e-3:
        warning = f"mass leakage: trapezoid integral {mass:.6f} is off by more than 1e-3"
    return FokkerPlanckResult(y_grid=y, density=p, mass=mass,
                              boundary_warning=warning, min_raw_density=min_raw)
