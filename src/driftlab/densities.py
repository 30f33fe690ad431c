"""Transition log-densities p(t, x, y) for the built-in models and the Euler
approximation.  All functions broadcast over numpy arrays in dt, x and y.
Each density is a theta-free record part (checks, arrays) that a fit runs
once and a ``*_record_logdensity`` part that it runs per theta.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDensityError
from .models import DiffusionSpec, GbmParams, OuParams
from .simulate import ou_transition_moments

LOG_2PI = np.log(2.0 * np.pi)


def normal_logpdf(y, mean, var):
    return -0.5 * (LOG_2PI + np.log(var)) - (np.asarray(y) - mean) ** 2 / (2.0 * var)


def _shifted_log_sum(a: np.ndarray, a_max: np.ndarray, axis) -> np.ndarray:
    tied = a == a_max
    terms = np.exp(a - a_max)
    terms[tied] = 0.0
    count = tied.sum(axis, float, keepdims=True)
    return np.log1p(terms.sum(axis, keepdims=True) / count) + np.log(count) + a_max


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis`` (over all of ``a`` when None), bit for
    bit what scipy.special.logsumexp (scipy 1.17) returns, at a fraction of
    its per-call cost.

    The same algorithm: the tied maxima are counted and left out of the sum
    of exp(a - max), which is taken along the same axis of an array of the
    same shape (so numpy's pairwise order matches); the result is
    log1p(sum / count) + log(count) + max.  Where that is not finite (a max
    of -inf, +inf or NaN) the result is log(sum(exp(a))), as in scipy.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis, keepdims=True)
    if np.isfinite(a_max).all():
        out = _shifted_log_sum(a, a_max, axis)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _shifted_log_sum(a, a_max, axis)
            direct = np.log(np.exp(a).sum(axis, keepdims=True))
        out = np.where(np.isfinite(out), out, direct)
    return np.squeeze(out, axis=axis)[()]


def record_arrays(dt, x, y) -> tuple:
    """(dt, x, y) as float arrays, dt checked positive: the OU and Euler record."""
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt > 0):
        raise ValueError("dt must be positive")
    return dt, np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def gbm_record(dt, x, y) -> tuple:
    """(dt, log y - log x, log y), with dt and the states checked positive."""
    dt, x, y = record_arrays(dt, x, y)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("GBM states must be positive")
    log_y = np.log(y)
    return dt, log_y - np.log(x), log_y


def gbm_record_logdensity(p: GbmParams, record: tuple):
    dt, r, log_y = record
    if p.sigma == 0:
        raise DegenerateDensityError("GBM transition density degenerate at sigma = 0")
    var = np.float64(p.sigma) ** 2  # overflows to inf where a Python float raises
    return normal_logpdf(r, (p.beta - 0.5 * var) * dt, var * dt) - log_y


def gbm_transition_logdensity(p: GbmParams, dt, x, y):
    """Lognormal transition: log(y/x) ~ Normal((beta - sigma^2/2) dt, sigma^2 dt)."""
    return gbm_record_logdensity(p, gbm_record(dt, x, y))


def ou_record_logdensity(p: OuParams, record: tuple):
    dt, x, y = record
    if p.sigma == 0:
        raise DegenerateDensityError("OU transition density degenerate at sigma = 0")
    phi, offset, var = ou_transition_moments(p, dt)
    return normal_logpdf(y, phi * x + offset, var)


def euler_record_logdensity(spec: DiffusionSpec, record: tuple, theta=None):
    """Euler log-densities of a record under spec, at theta (default spec.theta)."""
    dt, x, y = record
    theta = spec.theta if theta is None else np.atleast_1d(np.asarray(theta, dtype=float))
    mu = np.asarray(spec.drift(x, theta), dtype=float)
    sig = np.asarray(spec.diffusion(x, theta), dtype=float)
    if np.any(sig == 0):
        raise DegenerateDensityError("Euler transition density degenerate at sigma(x) = 0")
    return normal_logpdf(y, x + mu * dt, sig**2 * dt)
