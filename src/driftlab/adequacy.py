"""Synthetic-data model adequacy checks.

After a fit, datasets are re-simulated from the fitted model at the observed
design and summary statistics of the real data are compared against the
envelope of the synthetic ones.  A statistic falling outside the synthetic
5%-95% band flags a model feature the fit fails to reproduce; even a handful
of replicates is often enough to see gross misfit, while the quantile
envelope itself needs a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompleteContextError
from .models import DiffusionSpec, GbmParams, OuParams, TvGrowthParams
from .observe import NoisyObservationSet, ObservationModel, ObservationSet
from .particle import DiscreteKernel
from .paths import Path
from .rng import StreamRows
from .simulate import euler_advance, ou_paths, pow_square

DEFAULT_K = 50
BAND = (0.05, 0.95)  # quantile envelope of the synthetic statistics


def _mean_increment(v):
    return float(np.mean(np.diff(v)))


def _increment_sd(v):
    return float(np.std(np.diff(v), ddof=1))


def _lag1_increment_autocorr(v):
    d = np.diff(v)
    d = d - d.mean()
    denom = np.sum(d**2)
    if denom == 0:
        return 0.0
    return float(np.sum(d[:-1] * d[1:]) / denom)


DEFAULT_STATISTICS = {
    "mean_increment": _mean_increment,
    "increment_sd": _increment_sd,
    "lag1_increment_autocorr": _lag1_increment_autocorr,
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
}


def dataset_series(ds) -> np.ndarray:
    """The scalar value series of a dataset (first coordinate if several)."""
    if isinstance(ds, Path):
        return ds.values[:, 0]
    if isinstance(ds, ObservationSet):
        vals = ds.values
    elif isinstance(ds, NoisyObservationSet):
        vals = ds.y_values
    else:
        raise TypeError(f"unsupported dataset type {type(ds).__name__}")
    return vals if vals.ndim == 1 else vals[:, 0]


def simulate_states_at(model, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Latent states at the given times, exact where the model allows it."""
    dts = np.diff(times)
    if isinstance(model, GbmParams):
        z = rng.standard_normal(len(dts))
        incr = (model.beta - 0.5 * pow_square(model.sigma)) * dts + model.sigma * np.sqrt(dts) * z
        return (model.x0 * np.exp(np.concatenate([[0.0], np.cumsum(incr)])))[:, None]
    if isinstance(model, OuParams):
        return ou_paths(model, dts, rng.standard_normal(len(dts)))[:, None]
    if isinstance(model, TvGrowthParams):
        b = simulate_states_at(model.ou, times, rng)[:, 0]
        x = model.x0 * np.exp(np.concatenate([[0.0], np.cumsum(b[:-1] * dts)]))
        return x[:, None]
    if isinstance(model, DiscreteKernel):
        state = model.x0[None, :].copy()
        out = np.empty((len(times), model.state_dim))
        out[0] = state[0]
        for k in range(len(dts)):
            state = np.asarray(model.propagate(state, rng), dtype=float)
            out[k + 1] = state[0]
        return out
    if isinstance(model, DiffusionSpec):
        # 20 Euler substeps per observation gap; report every 20th state
        substeps = 20
        z = rng.standard_normal((len(dts) * substeps, model.state_dim))
        fine = np.empty((len(z) + 1, model.state_dim))
        euler_advance(model, model.x0, np.repeat(dts / substeps, substeps), z, out=fine)
        return fine[::substeps]
    raise TypeError(f"cannot simulate replicates from {type(model).__name__}")


def synthetic_replicates(model, times, k: int, seed: int,
                         om: ObservationModel | None = None) -> list:
    """Simulate k datasets from a fitted model at the observed design.

    With an observation model the result is a list of NoisyObservationSet
    (states sampled, then noised); otherwise exact-observation ObservationSet.
    Replicate r draws from the stream keyed (seed, "synthetic", r); the k
    keys are derived in one pass.  A negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    times = np.asarray(times, dtype=float)
    if isinstance(model, DiscreteKernel) and om is None:
        raise IncompleteContextError(
            "a state-space model context requires an observation model")

    rows = StreamRows(seed, k, "synthetic")

    def one(r: int):
        rng = rows[r]
        states = simulate_states_at(model, times, rng)
        if om is None:
            return ObservationSet(times=times, values=states[:, 0])
        y = om.sample(rng, states)
        return NoisyObservationSet(times=times, y_values=y[:, 0] if y.shape[1] == 1 else y)

    return [one(r) for r in range(k)]


@dataclass(frozen=True)
class StatEnvelope:
    name: str
    observed: float
    syn_min: float
    syn_max: float
    q_lo: float
    q_hi: float
    inside_band: bool
    indeterminate: bool


@dataclass(frozen=True)
class AdequacyReport:
    statistics: tuple
    n_replicates: int

    @property
    def flagged(self) -> list:
        return [s.name for s in self.statistics if not s.indeterminate and not s.inside_band]

    def to_json_dict(self) -> dict:
        return {
            "band": list(BAND),
            "n_replicates": self.n_replicates,
            "statistics": [
                {
                    "name": s.name,
                    "observed": s.observed,
                    "syn_min": s.syn_min,
                    "syn_max": s.syn_max,
                    "q_lo": s.q_lo,
                    "q_hi": s.q_hi,
                    "pass": bool(s.inside_band),
                    "indeterminate": bool(s.indeterminate),
                }
                for s in self.statistics
            ],
        }


def envelope_check(observed, synthetic, stats=None) -> AdequacyReport:
    """Compare statistics of the observed dataset against the synthetic envelope.

    ``stats`` maps names to statistics, each a callable on a 1-d value series
    (default: DEFAULT_STATISTICS).  A statistic that is constant across
    replicates is reported as indeterminate rather than failed.
    """
    if len(synthetic) < 20:
        raise ValueError("quantile envelopes need at least 20 synthetic replicates")
    stats = DEFAULT_STATISTICS if stats is None else stats
    obs_series = dataset_series(observed)
    syn_series = [dataset_series(ds) for ds in synthetic]
    rows = []
    for name, fn in stats.items():
        obs_val = fn(obs_series)
        syn_vals = np.array([fn(s) for s in syn_series])
        q_lo, q_hi = np.quantile(syn_vals, BAND)
        spread = float(syn_vals.max() - syn_vals.min())
        indeterminate = spread <= 1e-12 * max(1.0, abs(float(syn_vals.mean())))
        inside = bool(q_lo <= obs_val <= q_hi) or indeterminate
        rows.append(StatEnvelope(
            name=name, observed=obs_val,
            syn_min=float(syn_vals.min()), syn_max=float(syn_vals.max()),
            q_lo=float(q_lo), q_hi=float(q_hi),
            inside_band=inside, indeterminate=indeterminate,
        ))
    return AdequacyReport(statistics=tuple(rows), n_replicates=len(synthetic))
