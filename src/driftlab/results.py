"""Fit results and their JSON form."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ioutil import seed_key


@dataclass
class FitResult:
    theta_hat: np.ndarray
    objective_value: float
    iterations: int
    converged: bool
    seed: int | tuple
    standard_errors: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.theta_hat = np.atleast_1d(np.asarray(self.theta_hat, dtype=float))
        if self.standard_errors is not None:
            self.standard_errors = np.atleast_1d(np.asarray(self.standard_errors, dtype=float))

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": [float(v) for v in self.theta_hat],
            "objective": float(self.objective_value),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "seed": seed_key(self.seed),
            "stderr": None if self.standard_errors is None
            else [float(v) for v in self.standard_errors],
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitResult":
        return cls(
            theta_hat=np.asarray(d["theta_hat"], dtype=float),
            objective_value=d["objective"],
            iterations=d["iterations"],
            converged=d["converged"],
            seed=d["seed"],
            standard_errors=None if d.get("stderr") is None
            else np.asarray(d["stderr"], dtype=float),
            diagnostics=d.get("diagnostics", {}),
        )
