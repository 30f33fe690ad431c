"""Diffusion model definitions.

A model is ``dX_t = mu(X_t, theta) dt + sigma(X_t, theta) dB_t`` with a fixed
initial condition.  Drift and diffusion are plain callables ``(state, theta) ->
array``; the diffusion is scalar or diagonal (one value per coordinate).
Callables must accept batched states of shape ``(n, state_dim)`` as well as
single states of shape ``(state_dim,)`` — numpy-style elementwise definitions
get this for free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

Drift = Callable[[np.ndarray, np.ndarray], np.ndarray]
Diffusion = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DiffusionSpec:
    """An SDE model: drift, diffusion, parameter vector and initial state.

    Instances are immutable; ``with_theta`` returns a copy with a new
    parameter vector.  ``positive`` marks parameters that are constrained
    positive (optimizers work on their logs).  The bridge and the Euler density pass drift
    and diffusion a stack of m thetas as k columns, (m, 1, 1) and (m, 1), where they take
    them as ``th[0] * x`` does, and one 1-D theta at a time (m = 1) where they do not.
    """

    drift: Drift
    diffusion: Diffusion
    theta: np.ndarray
    x0: np.ndarray
    state_dim: int = 1
    positive: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "theta", np.atleast_1d(np.asarray(self.theta, dtype=float)))
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.state_dim < 1:
            raise ValueError("state_dim must be a positive integer")
        if self.x0.shape != (self.state_dim,):
            raise ValueError(f"x0 must have shape ({self.state_dim},), got {self.x0.shape}")
        if self.positive and len(self.positive) != len(self.theta):
            raise ValueError("positive mask must match theta length")

    def with_theta(self, theta) -> "DiffusionSpec":
        return replace(self, theta=np.atleast_1d(np.asarray(theta, dtype=float)))

    def drift_at(self, x) -> np.ndarray:
        return np.asarray(self.drift(x, self.theta), dtype=float)

    def diffusion_at(self, x) -> np.ndarray:
        return np.asarray(self.diffusion(x, self.theta), dtype=float)


def on_rows(flags, reduce=np.ndarray.any) -> bool:
    """A check's flags reduced over a stack of params' rows ((m, 1) columns), or one bool."""
    return reduce(flags) if isinstance(flags, np.ndarray) else flags


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion dX = beta*X dt + sigma*X dB, X_0 = x0 > 0."""

    beta: float
    sigma: float
    x0: float = 1.0

    def __post_init__(self):
        if not on_rows(self.x0 > 0, np.ndarray.all):
            raise ValueError("x0 must be positive")
        if on_rows(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class OuParams:
    """Mean-reverting process d b = -gamma*(b - beta_bar) dt + sigma dB, b_0 = b0."""

    gamma: float
    beta_bar: float
    sigma: float
    b0: float = 0.0

    def __post_init__(self):
        if not on_rows(self.gamma > 0, np.ndarray.all):
            raise ValueError("gamma must be positive")
        if on_rows(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")


def gbm_spec(p: GbmParams) -> DiffusionSpec:
    """GBM as a generic DiffusionSpec with theta = (beta, sigma)."""
    return DiffusionSpec(
        drift=lambda x, th: th[0] * x,
        diffusion=lambda x, th: th[1] * x,
        theta=np.array([p.beta, p.sigma]),
        x0=np.array([p.x0]),
        state_dim=1,
        positive=(False, True),
    )


def gbm_beta_spec(beta: float, sigma: float, x0: float = 1.0) -> DiffusionSpec:
    """GBM with sigma frozen: the free parameter vector is just (beta,)."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return DiffusionSpec(
        drift=lambda x, th: th[0] * x,
        diffusion=lambda x, th: sigma * x,
        theta=np.array([beta]),
        x0=np.array([x0]),
        state_dim=1,
        positive=(False,),
    )


def ou_spec(p: OuParams) -> DiffusionSpec:
    """OU as a generic DiffusionSpec with theta = (gamma, beta_bar, sigma)."""
    return DiffusionSpec(
        drift=lambda x, th: -th[0] * (x - th[1]),
        diffusion=lambda x, th: th[2] * np.ones_like(x),
        theta=np.array([p.gamma, p.beta_bar, p.sigma]),
        x0=np.array([p.b0]),
        state_dim=1,
        positive=(True, False, True),
    )


@dataclass(frozen=True)
class TvGrowthParams:
    """Growth model dX = b_t X dt whose rate b_t follows an OU process."""

    gamma: float
    beta_bar: float
    sigma: float
    b0: float = 0.0
    x0: float = 1.0

    def __post_init__(self):
        if not self.x0 > 0:
            raise ValueError("x0 must be positive")

    @property
    def ou(self) -> OuParams:
        return OuParams(self.gamma, self.beta_bar, self.sigma, self.b0)

