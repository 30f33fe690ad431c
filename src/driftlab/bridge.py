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
``BridgeDensity.record_terms`` draws a record's noise (``proposal_normals``)
once and keeps it frozen across theta for the rest of the fit.
"""

from __future__ import annotations

import numpy as np

from .densities import logsumexp, normal_logpdf
from .errors import DegenerateImportanceError
from .models import DiffusionSpec
from .rng import replicate_normals


def proposal_normals(n_pairs: int, m_sub: int, j_samples: int, seed) -> np.ndarray:
    """The (n_pairs, J, m_sub - 1) proposal normals of a record; pair i's come
    from the stream keyed (seed, "bridge", i)."""
    if m_sub < 2:
        raise ValueError("m_sub must be at least 2")
    if j_samples < 1:
        raise ValueError("j_samples must be at least 1")
    return replicate_normals(seed, n_pairs, (j_samples, m_sub - 1), "bridge")


def logdensities(spec: DiffusionSpec, dts, x, y, z: np.ndarray) -> np.ndarray:
    """Importance-sampling estimates of log p(dts[i], x[i], y[i]), every pair
    in one pass over (n_pairs, J) arrays driven by the proposal normals z[i]
    of shape (J, m_sub - 1), the record's ``proposal_normals``."""
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
        raise DegenerateImportanceError(int(np.argmax(degenerate)))
    return logsumexp(logw, axis=1) - np.log(j_samples)

