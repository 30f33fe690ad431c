"""Bridge-sampled transition densities.

For models without closed-form transitions, the density over one observation
gap is estimated by imputing latent values on a fine grid between the
endpoints: interior points are proposed sequentially from a Brownian-bridge
style kernel (mean linearly interpolated toward the right endpoint, variance
sigma(u)^2 * d * (1 - d/s) for substep d and remaining span s) and weighted by
the product of Euler substep densities over the proposal density.
``logdensities`` estimates every observation pair of a record in one pass over
(n_pairs, J) arrays; pair i's proposal noise comes from the stream keyed
(seed, "bridge", i), so the estimate is a deterministic function of
(inputs, seed) and can be optimized over theta with common random numbers.
``BridgeDensity`` draws a record's noise (``proposal_normals``) once, on its
first evaluation, and keeps it frozen across theta for the rest of the fit.
"""

from __future__ import annotations

import numpy as np

from .densities import logsumexp, normal_logpdf
from .errors import DegenerateImportanceError, UnsupportedDimensionError
from .models import DiffusionSpec
from .observe import ObservationSet
from .rng import replicate_normals


def proposal_normals(n_pairs: int, m_sub: int, j_samples: int, seed) -> np.ndarray:
    """The (n_pairs, J, m_sub - 1) proposal normals of a record; pair i's come
    from the stream keyed (seed, "bridge", i)."""
    if m_sub < 2:
        raise ValueError("m_sub must be at least 2")
    if j_samples < 1:
        raise ValueError("j_samples must be at least 1")
    return replicate_normals(seed, n_pairs, (j_samples, m_sub - 1), "bridge")


def _logdensities(spec: DiffusionSpec, dts, x, y, z: np.ndarray, pair: int = 0) -> np.ndarray:
    """Importance-sampling estimates of log p(dts[i], x[i], y[i]), every pair
    in one pass over (n_pairs, J) arrays driven by the proposal normals
    z[i] of shape (J, m_sub - 1); errors name pair ``pair + i``."""
    j_samples, m_sub = z.shape[1], z.shape[2] + 1
    dts = np.asarray(dts, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[:, None]
    delta = dts / m_sub
    u = np.repeat(np.asarray(x, dtype=float)[:, None], j_samples, axis=1)
    logw = np.zeros(u.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, m_sub):
            frac = delta / (dts - (k - 1) * delta)
            sig = np.asarray(spec.diffusion(u, spec.theta), dtype=float)
            mu = np.asarray(spec.drift(u, spec.theta), dtype=float)
            prop_var = sig**2 * delta * (1.0 - frac)
            prop_mean = u + (y - u) * frac
            u_next = prop_mean + np.sqrt(prop_var) * z[:, :, k - 1]
            logw += normal_logpdf(u_next, u + mu * delta, sig**2 * delta)
            logw -= normal_logpdf(u_next, prop_mean, prop_var)
            u = u_next
        sig = np.asarray(spec.diffusion(u, spec.theta), dtype=float)
        mu = np.asarray(spec.drift(u, spec.theta), dtype=float)
        logw += normal_logpdf(y, u + mu * delta, sig**2 * delta)

    logw = np.where(np.isnan(logw), -np.inf, logw)
    degenerate = ~np.any(logw > -np.inf, axis=1)
    if np.any(degenerate):
        raise DegenerateImportanceError(pair + int(np.argmax(degenerate)))
    return logsumexp(logw, axis=1) - np.log(j_samples)


def logdensities(spec: DiffusionSpec, dts, x, y, m_sub: int, j_samples: int,
                 seed, z: np.ndarray | None = None) -> np.ndarray:
    """Bridge estimates of log p(dts[i], x[i], y[i]), one per observation pair i.

    ``z`` is the record's ``proposal_normals(len(dts), m_sub, j_samples, seed)``
    for a caller that keeps them across evaluations; drawn here when omitted.
    """
    if z is None:
        z = proposal_normals(len(dts), m_sub, j_samples, seed)
    return _logdensities(spec, dts, x, y, z)


def bridge_loglikelihood(spec: DiffusionSpec, obs: ObservationSet, m_sub: int,
                         j_samples: int, seed) -> float:
    """Sum of bridge-sampled transition log-densities over consecutive pairs."""
    if spec.state_dim != 1:
        raise UnsupportedDimensionError("bridge sampling handles scalar models only")
    terms = logdensities(spec, *obs.pairs(), m_sub, j_samples, seed)
    # a running sum, left to right; terms.sum() adds pairwise and rounds differently
    return float(np.cumsum(terms)[-1])
