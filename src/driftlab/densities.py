"""Transition log-densities p(t, x, y) for the built-in models and the Euler
approximation.  All functions broadcast over numpy arrays in dt, x and y.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDensityError
from .models import DiffusionSpec, GbmParams, OuParams
from .simulate import ou_transition_moments

LOG_2PI = np.log(2.0 * np.pi)


def normal_logpdf(y, mean, var):
    return -0.5 * (LOG_2PI + np.log(var)) - (np.asarray(y) - mean) ** 2 / (2.0 * var)


def gbm_transition_logdensity(p: GbmParams, dt, x, y):
    """Lognormal transition: log(y/x) ~ Normal((beta - sigma^2/2) dt, sigma^2 dt)."""
    if not np.all(np.asarray(dt) > 0):
        raise ValueError("dt must be positive")
    if p.sigma == 0:
        raise DegenerateDensityError("GBM transition density degenerate at sigma = 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("GBM states must be positive")
    r = np.log(y) - np.log(x)
    mean = (p.beta - 0.5 * p.sigma**2) * dt
    var = p.sigma**2 * dt
    return normal_logpdf(r, mean, var) - np.log(y)


def ou_transition_logdensity(p: OuParams, dt, x, y):
    """Gaussian transition with the exact OU mean and variance."""
    if not np.all(np.asarray(dt) > 0):
        raise ValueError("dt must be positive")
    if p.sigma == 0:
        raise DegenerateDensityError("OU transition density degenerate at sigma = 0")
    phi, offset, var = ou_transition_moments(p, dt)
    mean = phi * np.asarray(x, dtype=float) + offset
    return normal_logpdf(y, mean, var)


def euler_transition_logdensity(spec: DiffusionSpec, dt, x, y):
    """One-step Euler approximation: y ~ Normal(x + mu(x) dt, sigma(x)^2 dt).

    For scalar models only; x and y may be arrays of evaluation points.
    """
    if not np.all(np.asarray(dt) > 0):
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(spec.drift(x, spec.theta), dtype=float)
    sig = np.asarray(spec.diffusion(x, spec.theta), dtype=float)
    if np.any(sig == 0):
        raise DegenerateDensityError("Euler transition density degenerate at sigma(x) = 0")
    return normal_logpdf(y, x + mu * dt, sig**2 * dt)
