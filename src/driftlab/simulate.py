"""Path simulators: Euler-Maruyama, exact GBM and OU, and the coupled
time-varying-growth system.

All simulators are pure functions of their inputs and a seed; calling twice
with the same arguments gives bit-identical paths.  ``seed`` may be an int or
a tuple key such as ``(seed, replicate)`` for replicate loops.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationDivergedError
from .models import DiffusionSpec, GbmParams, OuParams
from .paths import Path, TimeGrid
from .rng import stream


def euler_advance(spec: DiffusionSpec, x, dts, z: np.ndarray, out=None) -> np.ndarray:
    """Advance states by Euler-Maruyama steps and return the final states.

    x_{k+1} = x_k + mu(x_k) dt_k + sigma(x_k) sqrt(dt_k) z_k.  ``z`` has the
    step axis first and each row broadcasts against ``x``; ``dts`` is one step
    length or one row per step.  Non-finite states propagate instead of
    raising, so callers decide whether divergence is an error.  ``out``, when
    given, receives every state: out[0] = x and out[k + 1] after step k.
    """
    dts = np.broadcast_to(dts, (len(z),) + np.shape(dts)[1:])
    sqdts = np.sqrt(dts)
    if out is not None:
        out[0] = x
    with np.errstate(over="ignore", invalid="ignore"):  # propagates inf and NaN to any caller
        for k in range(len(z)):
            x = x + spec.drift_at(x) * dts[k] + spec.diffusion_at(x) * sqdts[k] * z[k]
            if out is not None:
                out[k + 1] = x
    return x


def euler_endpoints(spec: DiffusionSpec, grid: TimeGrid, z: np.ndarray) -> np.ndarray:
    """Terminal states of Euler paths driven by given normals.

    ``z`` has shape (n_reps, n_steps, state_dim) (a trailing dim of 1 may be
    omitted for scalar models); drift and diffusion must be vectorizable.
    Diverged replicates end non-finite instead of raising, so replicate
    studies can drop and count them.
    """
    if z.ndim == 2:
        z = z[:, :, None]
    x = np.broadcast_to(spec.x0, (len(z), spec.state_dim))
    return euler_advance(spec, x, grid.dt, z.transpose(1, 0, 2))


def simulate_gbm_exact(p: GbmParams, grid: TimeGrid, seed) -> Path:
    """Exact GBM path x0 * exp((beta - sigma^2/2) t + sigma B_t).

    Draws its increments as ``stream(seed).standard_normal(grid.n_steps)``;
    ``euler_advance`` on the GBM spec driven by those same normals gives the
    pathwise-coupled Euler path.
    """
    z = stream(seed).standard_normal(grid.n_steps)
    t = grid.times()
    b = np.concatenate([[0.0], np.cumsum(np.sqrt(grid.dt) * z)])
    values = p.x0 * np.exp((p.beta - 0.5 * pow_square(p.sigma)) * (t - t[0]) + p.sigma * b)
    return Path(times=t, values=values)


def ou_transition_moments(p: OuParams, dt) -> tuple:
    """Mean coefficient, offset, and variance of the exact OU transition.

    b_{t+dt} | b_t ~ Normal(beta_bar + (b_t - beta_bar) e^{-gamma dt},
    sigma^2 (1 - e^{-2 gamma dt}) / (2 gamma)); returned as (phi, offset, var)
    with mean = phi * b_t + offset; p's fields may be (m, 1) columns, a row per theta.
    """
    phi = np.exp(-p.gamma * np.asarray(dt, dtype=float))
    offset = p.beta_bar * (1.0 - phi)
    var = pow_square(p.sigma) * (1.0 - phi**2) / (2.0 * p.gamma)
    return phi, offset, var


def pow_square(s):
    """s ** 2 by numpy's scalar power (libm pow; inf, not OverflowError), entry by entry."""
    if isinstance(s, np.ndarray):  # the array power, s * s, can differ in the last bit
        return np.array([np.float64(v) ** 2 for v in s.flat]).reshape(s.shape)
    return np.float64(s) ** 2


def ou_paths(p: OuParams, dts, z: np.ndarray) -> np.ndarray:
    """Exact OU paths from b0 driven by normals ``z`` (step axis last).

    ``dts`` is one step length or one per step; the result has one more
    entry than ``z`` along the step axis.
    """
    n_steps = z.shape[-1]
    phi, offset, var = (np.broadcast_to(v, (n_steps,)) for v in ou_transition_moments(p, dts))
    sd = np.sqrt(var)
    values = np.empty(z.shape[:-1] + (n_steps + 1,))
    values[..., 0] = p.b0
    for k in range(n_steps):
        values[..., k + 1] = phi[k] * values[..., k] + offset[k] + sd[k] * z[..., k]
    return values


def simulate_ou(p: OuParams, grid: TimeGrid, seed) -> Path:
    """OU path sampled by its exact Gaussian transition (no discretization error)."""
    z = stream(seed).standard_normal(grid.n_steps)
    return Path(times=grid.times(), values=ou_paths(p, grid.dt, z))


def simulate_tv_growth(ou: OuParams, x0: float, grid: TimeGrid, seed) -> tuple:
    """Simulate the coupled system: growth rate b_t by exact OU transitions and
    dx = b_t x dt integrated with b frozen per step, x_{k+1} = x_k exp(b_k dt).

    The exponential update keeps x strictly positive; negative growth rates
    from the OU model are allowed and simply shrink x.  Returns
    (beta_path, x_path) on the shared grid.
    """
    if not x0 > 0:
        raise ValueError("x0 must be positive")
    beta_path = simulate_ou(ou, grid, seed)
    b = beta_path.scalar_values()
    dt = grid.dt
    x = np.empty(grid.n_steps + 1)
    x[0] = x0
    with np.errstate(over="raise"):  # control flow: names the step k that overflows
        for k in range(grid.n_steps):
            try:
                x[k + 1] = x[k] * np.exp(b[k] * dt)
            except FloatingPointError:
                raise SimulationDivergedError(k, "x overflow in exponential update") from None
    if not np.all(np.isfinite(x)):
        bad = int(np.argmax(~np.isfinite(x)))
        raise SimulationDivergedError(bad, "x overflow in exponential update")
    return beta_path, Path(times=grid.times(), values=x)
