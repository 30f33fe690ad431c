"""Time grids, simulated paths, and path CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InsufficientDataError


def series_arrays(times, values=None, what="path") -> tuple:
    """(times, values) as float arrays, checked against the one time-axis rule:
    times 1-D, finite and strictly increasing, and ``values``, if given, one
    finite row per time.  A breach raises ValueError naming the first bad row."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be 1-D, got shape {times.shape}")
    bad = ~np.isfinite(times)  # first, so the order test meets no inf or nan
    if not bad.any():
        bad[1:] = times[1:] <= times[:-1]
    if bad.any():
        i = int(bad.argmax())
        raise ValueError("times must be finite and strictly increasing "
                         f"(row {i}: t = {float(times[i])!r})")
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.shape[:1] != times.shape:
            raise ValueError(f"{what} values need one row per time, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{what} values must be finite")
    return times, values


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        series_arrays([self.t_start, self.t_end])
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
        times, values = series_arrays(self.times, self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values[:, None] if values.ndim == 1 else values)

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
