"""Exception types shared across the toolkit, and its one floating-point policy."""

from contextlib import contextmanager

import numpy as np


class DriftlabError(Exception):
    """Base class for all toolkit errors."""


class SimulationDivergedError(DriftlabError):
    """A simulated state or a drift/diffusion evaluation became non-finite."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        msg = f"simulation diverged at step {step}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UnsupportedDimensionError(DriftlabError):
    """Operation is only defined for scalar-state models."""


class InsufficientDataError(DriftlabError):
    """Not enough data points for the requested computation."""


class DataFormatError(DriftlabError):
    """An input CSV is malformed: bad header, no data rows, or a bad row."""


class DegenerateDensityError(DriftlabError):
    """Transition density requested for a model with zero diffusion."""


class InvalidGridError(DriftlabError):
    """Spatial or time grid too coarse or otherwise unusable."""


class InvalidStartError(DriftlabError):
    """Objective is non-finite at the optimizer's starting point."""


class EstimationFailedError(DriftlabError):
    """All Monte Carlo replicates diverged; nothing left to average."""


class DegenerateImportanceError(DriftlabError):
    """All importance weights for an observation pair are zero or non-finite."""

    def __init__(self, pair: int):
        self.pair = pair
        super().__init__(f"all importance weights degenerate for observation pair {pair}")


class FilterDegenerateError(DriftlabError):
    """Every particle received zero likelihood at some filter step."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(
            f"all particle weights are zero at step {step}; "
            "increase the observation scale or the particle count"
        )


class NumericalSingularityError(DriftlabError):
    """Innovation variance (or similar quantity) is singular."""


class WeightSingularityError(DriftlabError):
    """sigma-weighted penalty hit a zero diffusion value at a quadrature node."""


class IncompleteContextError(DriftlabError):
    """Synthetic-data generation needs an observation model that was not supplied."""


class NonFiniteTermError(DriftlabError):
    """A log-likelihood term evaluated to a non-finite value."""

    def __init__(self, pair: int, value: float):
        self.pair = pair
        self.value = value
        super().__init__(f"non-finite log-likelihood term at observation pair {pair}: {value}")


class ConfigError(DriftlabError):
    """Invalid run configuration (unknown keys, missing files, bad values)."""


@contextmanager
def _fp_policy():
    """The entry points' floating-point policy, ``@_fp_policy()``: numpy's events are
    ignored and each result checks its own inf or NaN.  As a decorator it opens a fresh
    np.errstate per call, since numpy 1.x's keeps the state it saves on the instance."""
    with np.errstate(all="ignore"):
        yield
