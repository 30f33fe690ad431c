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

from .densities import logsumexp, normal_logpdf, takes_columns
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


# values per substep of a stacked pass: 8 thetas on 3 pairs x J 200 took 0.34 of the time of
# 8 1-D passes, 2 thetas on 40 pairs 1.33 of 2
STACK_VALUES = 8_000


def stack_size(spec: DiffusionSpec, record: tuple) -> int:
    """Thetas per pass: STACK_VALUES values a substep, or 1 where the spec takes no columns."""
    return max(1, STACK_VALUES // record[4][0].size) if takes_columns(spec, record[0]) else 1


def record_logdensities(spec: DiffusionSpec, theta: np.ndarray, record: tuple) -> np.ndarray:
    """Estimates of log p_theta for the pairs of a ``prepare_record`` record: (n_pairs,) at a
    1-D theta, raising DegenerateImportanceError for a pair with no finite weight, and
    (m, n_pairs), such a pair -inf, at an (m, k) stack, each substep one (m, n_pairs, J) pass."""
    u, y, delta, fracs, w, logw = record
    th = theta if theta.ndim == 1 else theta.T[:, :, None, None]
    for frac, w_k in zip(fracs, w):
        sig = np.asarray(spec.diffusion(u, th), dtype=float)
        mu = np.asarray(spec.drift(u, th), dtype=float)
        d = (y - u) * frac + np.abs(sig) * w_k
        r = d - mu * delta
        logw = logw - r * r / (2.0 * sig**2 * delta)
        u = u + d
    sig = np.asarray(spec.diffusion(u, th), dtype=float)
    mu = np.asarray(spec.drift(u, th), dtype=float)
    logw = logw + normal_logpdf(y, u + mu * delta, sig**2 * delta)

    est = logsumexp(np.where(np.isnan(logw), -np.inf, logw), axis=-1) - np.log(w.shape[2])
    if theta.ndim == 2:
        return np.broadcast_to(est, (len(theta), est.shape[-1]))
    degenerate = est == -np.inf
    if np.any(degenerate):
        raise DegenerateImportanceError(int(np.argmax(degenerate)))
    return est
