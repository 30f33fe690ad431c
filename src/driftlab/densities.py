"""Transition log-densities p(t, x, y) for the built-in models and the Euler
approximation.  All functions broadcast over numpy arrays in dt, x and y.
Each density is a theta-free record part (checks, arrays) that a fit runs
once and a ``*_moments`` part that it runs per theta: every pair's Gaussian
target, mean and variance, whose ``normal_logpdf`` is the log-density.
A stack's rows are byte for byte the 1-D values: sigma squares by libm pow, numpy's scalar
``** 2`` (``simulate.pow_square``), not by the array ``** 2``, s * s, whose last bit can differ.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDensityError
from .models import DiffusionSpec, GbmParams, OuParams, on_rows
from .simulate import ou_transition_moments, pow_square

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
    else:  # its own errstate: a public kernel, called directly with +-inf
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


def gbm_moments(p: GbmParams, dt, r) -> tuple:
    """(target, mean, variance) of a GBM record's log-returns r under p (or its columns)."""
    if on_rows(p.sigma == 0):
        raise DegenerateDensityError("GBM transition density degenerate at sigma = 0")
    var = pow_square(p.sigma)
    return r, (p.beta - 0.5 * var) * dt, var * dt


def gbm_transition_logdensity(p: GbmParams, dt, x, y):
    """Lognormal transition: log(y/x) ~ Normal((beta - sigma^2/2) dt, sigma^2 dt)."""
    dt, r, log_y = gbm_record(dt, x, y)
    return normal_logpdf(*gbm_moments(p, dt, r)) - log_y


def ou_moments(p: OuParams, record: tuple) -> tuple:
    """(target, mean, variance) of an OU record's end states under p (or its columns)."""
    dt, x, y = record
    if on_rows(p.sigma == 0):
        raise DegenerateDensityError("OU transition density degenerate at sigma = 0")
    phi, offset, var = ou_transition_moments(p, dt)
    return y, phi * x + offset, var


def euler_moments(spec: DiffusionSpec, record: tuple, theta=None) -> tuple:
    """(target, mean, variance) of a record's one-step Euler Gaussian under spec at theta
    (default spec.theta), or at an (m, k) stack passed as k columns (m, 1): (m, n) rows."""
    dt, x, y = record
    theta = spec.theta if theta is None else np.atleast_1d(np.asarray(theta, dtype=float))
    th = theta if theta.ndim == 1 else theta.T[:, :, None]
    mu = np.asarray(spec.drift(x, th), dtype=float)
    sig = np.asarray(spec.diffusion(x, th), dtype=float)
    if np.any(sig == 0):
        raise DegenerateDensityError("Euler transition density degenerate at sigma(x) = 0")
    if theta.ndim == 2:  # a theta-free drift or diffusion gives no row per theta of its own
        mu, sig = (np.broadcast_to(v, (len(theta),) + x.shape) for v in (mu, sig))
    return y, x + mu * dt, sig**2 * dt


def takes_columns(spec: DiffusionSpec, u: np.ndarray) -> bool:
    """Whether drift and diffusion at states u take m thetas as k columns (k, m) + (1,) *
    u.ndim, row i byte for byte their value at the 1-D theta i (not so where they raise)."""
    thetas, values = spec.theta + np.array([[0.0], [1.0]]), np.empty((2, 2, 2) + u.shape)
    cols = thetas.T.reshape(thetas.T.shape + (1,) * u.ndim)
    try:  # whatever a user's spec raises on columns, it is called theta by theta
        for fn, v in zip((spec.drift, spec.diffusion), values):  # v: columns, then 1-D thetas
            v[0], v[1, 0], v[1, 1] = fn(u, cols), fn(u, thetas[0]), fn(u, thetas[1])
    except Exception:
        return False
    return values[:, 0].tobytes() == values[:, 1].tobytes()
