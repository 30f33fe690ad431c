"""Time grids, simulated paths, and path CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InsufficientDataError


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Path:
    """A trajectory on a strictly increasing time grid.

    ``values`` has shape (n_times, state_dim); scalar input is reshaped.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or len(times) != len(values):
            raise ValueError("times and values must have matching leading length")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")

    @property
    def state_dim(self) -> int:
        return self.values.shape[1]

    def scalar_values(self) -> np.ndarray:
        if self.state_dim != 1:
            raise ValueError("path is not scalar")
        return self.values[:, 0]


def quadratic_variation(path: Path) -> float:
    """Sum of squared increments, summed over coordinates."""
    if len(path.times) < 2:
        raise InsufficientDataError("quadratic variation needs at least 2 points")
    return float(np.sum(np.diff(path.values, axis=0) ** 2))


def write_path_csv(path: Path, file) -> None:
    """Write ``t,x1[,x2,...]`` rows at full double precision."""
    header = ["t"] + [f"x{i + 1}" for i in range(path.state_dim)]
    write_csv_table(header, path.times, path.values, file)


def write_csv_table(header, times, rows, file) -> None:
    """Write ``header`` and one ``t,row...`` line per time, each value with 17
    significant digits (a lossless float64 round trip through read_csv_table)."""
    file.write(",".join(header) + "\n")
    for t, row in zip(times, rows):
        file.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")


def read_csv_table(file) -> np.ndarray:
    """Rows of a CSV with a ``t,...`` header as an (n_rows, n_columns) array.

    Blank lines are skipped.  A bad header, a row with the wrong field count
    or a non-numeric field, or no data rows raises DataFormatError.
    """
    header = file.readline().strip().split(",")
    if len(header) < 2 or header[0] != "t":
        raise DataFormatError(f"line 1: expected a 't,...' header, got {','.join(header)!r}")
    rows = []
    for lineno, line in enumerate(file, start=2):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        try:
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise DataFormatError("no data rows after the header")
    return np.array(rows)
