"""Bootstrap particle filter for partially and noisily observed diffusions.

Particles are propagated by Euler substeps between observation times (or by a
discrete-time kernel, one step per observation), weighted by the observation
density, and resampled systematically when the effective sample size drops
below half the particle count.  The running likelihood estimate uses the
prediction-error decomposition with the pre-update normalized weights, which
reduces to log((1/N) sum of incremental weights) whenever the weights are
uniform (always true right after a resampling step).  A step whose joint
log-weights have no finite max is degenerate and raises FilterDegenerateError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .densities import _shifted_log_sum
from .errors import DataFormatError, FilterDegenerateError, SimulationDivergedError, _fp_policy
from .ioutil import seed_key
from .models import DiffusionSpec
from .observe import NoisyObservationSet, ObservationModel
from .paths import Path
from .rng import StreamRows
from .simulate import euler_advance

RESAMPLE_ESS_FRACTION = 0.5  # resample when ESS drops below this share of the particles


def ess_of_weights(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w^2) of normalized weights."""
    w = np.asarray(weights, dtype=float)
    return float(1.0 / (w**2).sum())


def systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    """Systematic resampling indices from one uniform draw u in [0, 1)."""
    w = np.asarray(weights, dtype=float)
    n = len(w)
    positions = (u + np.arange(n)) / n
    return np.minimum(np.searchsorted(np.cumsum(w), positions), n - 1)


@dataclass(frozen=True)
class DiscreteKernel:
    """Discrete-time state transition: one kernel step per observation gap."""

    x0: np.ndarray
    propagate: Callable  # (states (N, d), rng) -> new states (N, d); no other shape

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))

    @property
    def state_dim(self) -> int:
        return len(self.x0)


@dataclass
class FilterResult:
    loglik: float
    filtered_means: Path
    ess_trace: np.ndarray
    resample_steps: list = field(default_factory=list)
    seed: int | tuple = 0

    def to_json_dict(self) -> dict:
        return {
            "loglik": float(self.loglik),
            "ess_trace": [float(v) for v in self.ess_trace],
            "filtered_means": [
                {"t": float(t), "mean": [float(v) for v in row]}
                for t, row in zip(self.filtered_means.times, self.filtered_means.values)
            ],
            "resample_steps": [int(i) for i in self.resample_steps],
            "seed": seed_key(self.seed),
        }


@_fp_policy()
def particle_filter(model, om: ObservationModel, obs: NoisyObservationSet,
                    n_particles: int, substeps: int = 1, seed: int = 0) -> FilterResult:
    """Bootstrap filter returning the log-likelihood estimate, the filtered
    posterior means at observation times, and the ESS trace.

    ``model`` is a DiffusionSpec (Euler substeps between observations) or a
    DiscreteKernel (one transition per observation).  The latent state equals
    the model's x0 at the first observation time.  A propagation must give
    states of shape (n_particles, state_dim): any other raises DataFormatError
    naming the step.  Step i propagates with the stream keyed (seed, "prop", i)
    and resamples with (seed, "resample", i), all keys derived in one pass per
    filter, so the result is deterministic for any worker count.
    """
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    is_kernel = isinstance(model, DiscreteKernel)
    d = model.state_dim
    n = len(obs)
    y = obs.y2d()

    x = np.tile(model.x0, (n_particles, 1)).astype(float)
    log_w = uniform = np.full(n_particles, -np.log(n_particles))
    loglik = 0.0
    means = np.empty((n, d))
    ess_trace = np.empty(n)
    resample_steps: list[int] = []
    key = seed if isinstance(seed, tuple) else (seed,)
    rows = StreamRows([key + ("prop",), key + ("resample",)], n)  # rows[0, i], rows[1, i]

    for i in range(n):
        if i > 0:
            if is_kernel:
                x = np.asarray(model.propagate(x, rows[0, i]), dtype=float)
            else:
                gap = obs.times[i] - obs.times[i - 1]
                z = rows[0, i].standard_normal((substeps, n_particles, d))
                x = euler_advance(model, x, gap / substeps, z)
            if x.shape != (n_particles, d):
                raise DataFormatError(f"the propagation into step {i} gave states of shape "
                                      f"{x.shape}, not (n_particles, state_dim) {(n_particles, d)}")
            if not np.isfinite(x).all():
                raise SimulationDivergedError(i, "non-finite particle state")

        log_g = om.loglik(y[i], x)
        log_joint = log_w + log_g
        top = log_joint.max()
        if not math.isfinite(top):
            raise FilterDegenerateError(i)
        step_ll = _shifted_log_sum(log_joint, top, None)[0]  # logsumexp's own arithmetic
        loglik += step_ll
        log_w = log_joint - step_ll

        w = np.exp(log_w)
        ess = ess_of_weights(w)
        ess_trace[i] = ess
        means[i] = w @ x

        if ess < RESAMPLE_ESS_FRACTION * n_particles and i < n - 1:
            u = float(rows[1, i].random())
            idx = systematic_resample(w, u)
            x = x[idx]
            log_w = uniform
            resample_steps.append(i)

    return FilterResult(
        loglik=float(loglik),
        filtered_means=Path(times=obs.times, values=means),
        ess_trace=ess_trace,
        resample_steps=resample_steps,
        seed=seed,
    )
