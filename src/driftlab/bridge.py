"""Bridge-sampled transition densities.

For models without closed-form transitions, the density over one observation
gap is estimated by imputing latent values on a fine grid between the
endpoints: interior points are proposed sequentially from a Brownian-bridge
style kernel (mean linearly interpolated toward the right endpoint, variance
sigma(u)^2 * d * (1 - d/s) for substep d and remaining span s) and weighted by
the product of Euler substep densities over the proposal density.
``logdensities`` estimates every observation pair of a record; pair i redraws
its proposal noise from the stream keyed (seed, "bridge", i) on every call, so
the estimate is a deterministic function of (inputs, seed) and can be
optimized over theta with common random numbers.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .densities import normal_logpdf
from .errors import DegenerateImportanceError, UnsupportedDimensionError
from .models import DiffusionSpec
from .observe import ObservationSet
from .rng import stream


def bridge_pair_logdensity(spec: DiffusionSpec, dt: float, x: float, y: float,
                           m_sub: int, j_samples: int, seed, pair: int = 0) -> float:
    """Importance-sampling estimate of log p(dt, x, y) for one observation pair."""
    if m_sub < 2:
        raise ValueError("m_sub must be at least 2")
    if j_samples < 1:
        raise ValueError("j_samples must be at least 1")
    delta = dt / m_sub
    z = stream(seed, "bridge", pair).standard_normal((j_samples, m_sub - 1))

    u = np.full(j_samples, float(x))
    logw = np.zeros(j_samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, m_sub):
            remaining = dt - (k - 1) * delta
            frac = delta / remaining
            sig = np.asarray(spec.diffusion(u, spec.theta), dtype=float)
            mu = np.asarray(spec.drift(u, spec.theta), dtype=float)
            prop_var = sig**2 * delta * (1.0 - frac)
            prop_mean = u + (y - u) * frac
            u_next = prop_mean + np.sqrt(prop_var) * z[:, k - 1]
            logw += normal_logpdf(u_next, u + mu * delta, sig**2 * delta)
            logw -= normal_logpdf(u_next, prop_mean, prop_var)
            u = u_next
        sig = np.asarray(spec.diffusion(u, spec.theta), dtype=float)
        mu = np.asarray(spec.drift(u, spec.theta), dtype=float)
        logw += normal_logpdf(y, u + mu * delta, sig**2 * delta)

    logw = np.where(np.isnan(logw), -np.inf, logw)
    if not np.any(logw > -np.inf):
        raise DegenerateImportanceError(pair)
    return float(logsumexp(logw) - np.log(j_samples))


def logdensities(spec: DiffusionSpec, dts, x, y, m_sub: int, j_samples: int,
                 seed) -> np.ndarray:
    """Bridge estimates of log p(dts[i], x[i], y[i]), one per observation pair i."""
    return np.array([bridge_pair_logdensity(spec, dt, xi, yi, m_sub, j_samples, seed, pair=i)
                     for i, (dt, xi, yi) in enumerate(zip(dts, x, y))])


def bridge_loglikelihood(spec: DiffusionSpec, obs: ObservationSet, m_sub: int,
                         j_samples: int, seed) -> float:
    """Sum of bridge-sampled transition log-densities over consecutive pairs."""
    if spec.state_dim != 1:
        raise UnsupportedDimensionError("bridge sampling handles scalar models only")
    if len(obs) < 2:
        raise ValueError("need at least two observations")
    values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
    terms = logdensities(spec, np.diff(obs.times), values[:-1], values[1:],
                         m_sub, j_samples, seed)
    # a running sum, left to right; terms.sum() adds pairwise and rounds differently
    return float(np.cumsum(terms)[-1])
