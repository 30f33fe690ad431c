"""Bridge-sampled transition densities.

For models without closed-form transitions, the density over one observation
gap is estimated by imputing latent values on a fine grid between the
endpoints, proposed from a Brownian-bridge style kernel and weighted by the
Euler substep densities over the proposal density.  At a substep d with
f = d / (remaining span), the draw u' = m + sqrt(sigma(u)^2 d (1 - f)) z,
m = u + (y - u) f, makes log N(u'; u + mu d, sigma^2 d) - log N(u'; m,
sigma^2 d (1 - f)) cancel to 1/2 log(1 - f) + 1/2 z^2 - r^2 / (2 sigma^2 d),
r = u' - u - mu d.  ``prepare_record`` computes once per record the f_k, the
constant 1/2 sum_k [log(1 - f_k) + z_k^2] of each (pair, draw) and the draws
w_k = sqrt(d (1 - f_k)) z_k as (m_sub - 1, n_pairs, J).  Pair i's draws come
from the stream keyed (seed, "bridge", i); a fit draws and prepares them once.
"""

from __future__ import annotations

import numpy as np

from .densities import logsumexp, normal_logpdf, record_arrays
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


def prepare_record(dts, x, y, z: np.ndarray) -> tuple:
    """The theta-free part of a record's estimates, for its normals z (n_pairs, J, m_sub - 1)."""
    dts, x, y = dts[:, None], x[:, None], y[:, None]
    delta = dts / (z.shape[2] + 1)
    z = np.ascontiguousarray(np.moveaxis(z, 2, 0))  # (m_sub - 1, n_pairs, J)
    fracs = delta / (dts - np.arange(len(z))[:, None, None] * delta)
    const = sum(0.5 * (np.log(1.0 - f) + z_k * z_k) for f, z_k in zip(fracs, z))
    w = np.sqrt(delta * (1.0 - fracs)) * z
    return x, y, delta, fracs, w, const


def record_logdensities(spec: DiffusionSpec, theta, record: tuple) -> np.ndarray:
    """Estimates of log p_theta for the pairs of a ``prepare_record`` record."""
    u, y, delta, fracs, w, logw = record
    for frac, w_k in zip(fracs, w):
        sig = np.asarray(spec.diffusion(u, theta), dtype=float)
        mu = np.asarray(spec.drift(u, theta), dtype=float)
        d = (y - u) * frac + np.abs(sig) * w_k
        r = d - mu * delta
        logw = logw - r * r / (2.0 * sig**2 * delta)
        u = u + d
    sig = np.asarray(spec.diffusion(u, theta), dtype=float)
    mu = np.asarray(spec.drift(u, theta), dtype=float)
    logw += normal_logpdf(y, u + mu * delta, sig**2 * delta)

    logw = np.where(np.isnan(logw), -np.inf, logw)
    degenerate = ~np.any(logw > -np.inf, axis=1)
    if np.any(degenerate):
        raise DegenerateImportanceError(int(np.argmax(degenerate)))
    return logsumexp(logw, axis=1) - np.log(w.shape[2])


def logdensities(spec: DiffusionSpec, dts, x, y, z: np.ndarray) -> np.ndarray:
    """Estimates of log p(dts[i], x[i], y[i]) at spec.theta, pair i driven by the
    (J, m_sub - 1) proposal normals z[i]: prepare, then evaluate."""
    return record_logdensities(spec, spec.theta, prepare_record(*record_arrays(dts, x, y), z))
