"""Observation sets and observation-noise models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .errors import DataFormatError
from .paths import read_csv_table, series_arrays, write_csv_table


@dataclass(frozen=True)
class ObservationSet:
    """Exactly observed states x_{t_i} at strictly increasing times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times, values = series_arrays(self.times, self.values, "observation")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.times)

    def pairs(self) -> tuple:
        """(dts, x, y) of the consecutive observation pairs (first coordinate)."""
        if len(self) < 2:
            raise ValueError("need at least two observations")
        values = self.values.reshape(len(self), -1)[:, 0]
        return np.diff(self.times), values[:-1], values[1:]


@dataclass(frozen=True)
class NoisyObservationSet:
    """Noisy observations y_i of the latent state at strictly increasing times.

    ``y_values`` has shape (n,) for scalar observations or (n, p).
    """

    times: np.ndarray
    y_values: np.ndarray

    def __post_init__(self):
        times, y = series_arrays(self.times, self.y_values, "observation")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "y_values", y)

    def __len__(self):
        return len(self.times)

    def y2d(self) -> np.ndarray:
        return self.y_values[:, None] if self.y_values.ndim == 1 else self.y_values


def projection_link(indices) -> Callable:
    """Link selecting state coordinates as the observation mean."""
    idx = np.asarray(indices, dtype=int)

    def link(states: np.ndarray) -> np.ndarray:
        return np.asarray(states)[..., idx]

    return link


@dataclass(frozen=True)
class ObservationModel:
    """Conditional density of an observation given the state, y | x ~ f(y | x).

    ``kind`` is "gaussian" or "student_t"; ``link`` maps states (n, d) to
    observation means (n, p), or (n,) when p = 1, identity by default.
    Observation coordinates are conditionally independent given the state.
    Its log-density's constants are computed once, in the order they are subtracted.
    """

    kind: str
    scale: float
    dof: float | None = None
    link: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t"):
            raise ValueError(f"unknown observation model kind {self.kind!r}")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if self.kind == "student_t" and not (self.dof is not None and self.dof > 0):
            raise ValueError("student_t requires dof > 0")
        if self.kind == "gaussian":
            consts = (0.5 * np.log(2.0 * np.pi), np.log(self.scale))
        else:  # the sum and the log1p factor
            nu = self.dof
            consts = (gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0) - 0.5 * np.log(nu * np.pi)
                      - np.log(self.scale), (nu + 1.0) / 2.0)
        object.__setattr__(self, "_log_consts", consts)

    def mean(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        m = states if self.link is None else np.asarray(self.link(states), dtype=float)
        return m[:, None] if states.ndim == 2 and m.shape == (len(states),) else m

    def _loglik_rows(self, y, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(states)
        m = self.mean(states)
        if m.ndim != 2 or len(m) != len(states):
            raise DataFormatError(f"the observation link maps {len(states)} states to "
                                  f"means of shape {m.shape}, not (n_states, p)")
        u = (y - m) / self.scale
        a, b = self._log_consts
        lp = -0.5 * u**2 - a - b if self.kind == "gaussian" else a - b * np.log1p(u**2 / self.dof)
        return lp[:, 0] if lp.shape[1] == 1 else lp.sum(axis=1)  # one column: its bits, unreduced

    def loglik(self, y, states: np.ndarray) -> np.ndarray:
        """Log f(y | x) for each state row; y is one observation.  A far tail
        overflows to -inf, the filter's degenerate weight, silently under ``_fp_policy``."""
        return self._loglik_rows(np.atleast_1d(np.asarray(y, dtype=float))[None, :], states)

    def loglik_series(self, y: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Log f(y_i | x_i) for paired sequences: one observation per state row."""
        y = np.asarray(y, dtype=float)
        return self._loglik_rows(y[:, None] if y.ndim == 1 else y, states)

    def score(self, y, m) -> np.ndarray:
        """d log f(y | m) / dm, elementwise in the observation mean m."""
        u = (np.asarray(y, dtype=float) - m) / self.scale
        if self.kind == "gaussian":
            return u / self.scale
        nu = self.dof
        return (nu + 1.0) * u / (self.scale * (nu + u**2))

    def sample(self, rng: np.random.Generator, states: np.ndarray) -> np.ndarray:
        m = self.mean(np.atleast_2d(states))
        if self.kind == "gaussian":
            noise = rng.standard_normal(m.shape)
        else:
            noise = rng.standard_t(self.dof, size=m.shape)
        return m + self.scale * noise


def write_observations_csv(obs, file) -> None:
    if isinstance(obs, ObservationSet):
        vals = obs.values[:, None] if obs.values.ndim == 1 else obs.values
        header = ["t"] + (["x"] if vals.shape[1] == 1 else [f"x{i+1}" for i in range(vals.shape[1])])
    else:
        vals = obs.y2d()
        header = ["t"] + [f"y{i+1}" for i in range(vals.shape[1])]
    write_csv_table(header, obs.times, vals, file)


def _read_table(file):
    data = read_csv_table(file)
    vals = data[:, 1] if data.shape[1] == 2 else data[:, 1:]
    return data[:, 0], vals


def read_observations_csv(file) -> ObservationSet:
    """Read exact observations; accepts `t,x` or simulator `t,x1` headers."""
    return ObservationSet(*_read_table(file))


def read_noisy_csv(file) -> NoisyObservationSet:
    return NoisyObservationSet(*_read_table(file))
