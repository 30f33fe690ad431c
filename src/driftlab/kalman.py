"""A scalar linear-Gaussian state-space model and its Kalman filter.

This is the exact-likelihood oracle used to validate the particle filter:
for an OU state observed with Gaussian noise the prediction-error
decomposition gives the likelihood in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import LOG_2PI
from .errors import NumericalSingularityError
from .models import OuParams
from .observe import NoisyObservationSet, ObservationModel
from .simulate import ou_transition_moments


@dataclass(frozen=True)
class LinearGaussianSSM:
    """x_k = F_k x_{k-1} + b_k + w_k,  w_k ~ N(0, Q_k),  k = 1..n-1
    y_k = x_k + v_k,  v_k ~ N(0, R),  x_0 ~ N(m0, P0).

    F, b, Q hold one entry per transition (n-1 of them); the first
    observation is matched against the initial distribution directly.
    """

    F: np.ndarray
    b: np.ndarray
    Q: np.ndarray
    R: float
    m0: float
    P0: float

    def __post_init__(self):
        for name in ("F", "b", "Q"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("R", "m0", "P0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.F.ndim == self.b.ndim == self.Q.ndim == 1
                and len(self.F) == len(self.b) == len(self.Q)):
            raise ValueError("F, b and Q must be 1-D with one entry per step")
        for name in ("Q", "R", "P0"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be nonnegative")

    @property
    def n_times(self) -> int:
        return len(self.F) + 1


@dataclass(frozen=True)
class KalmanResult:
    loglik: float
    filtered_means: np.ndarray


def kalman_filter(ssm: LinearGaussianSSM, y) -> KalmanResult:
    y = np.asarray(y, dtype=float)
    if len(y) != ssm.n_times or y.size != len(y):
        raise ValueError(f"SSM defines {ssm.n_times} scalar observations, got shape {y.shape}")
    F, b, Q = ssm.F.tolist(), ssm.b.tolist(), ssm.Q.tolist()
    m, P = ssm.m0, ssm.P0
    means = np.empty(len(y))
    loglik = 0.0
    for k, yk in enumerate(y.reshape(-1).tolist()):
        if k > 0:
            m = F[k - 1] * m + b[k - 1]
            P = F[k - 1] * P * F[k - 1] + Q[k - 1]
        v = yk - m
        S = P + ssm.R
        if not 0.0 < S < np.inf:
            raise NumericalSingularityError(f"singular innovation variance at step {k}")
        K = P / S
        m = m + K * v
        P = P - K * P
        loglik += -0.5 * (LOG_2PI + np.log(S) + v * v / S)
        means[k] = m
    return KalmanResult(loglik=float(loglik), filtered_means=means)


def kalman_loglik(ssm: LinearGaussianSSM, obs: NoisyObservationSet) -> float:
    """Exact prediction-error-decomposition log-likelihood."""
    return kalman_filter(ssm, obs.y_values).loglik


def ou_to_ssm(p: OuParams, om: ObservationModel, times) -> LinearGaussianSSM:
    """Exact OU discretization per inter-observation gap, as a linear-Gaussian SSM.

    The latent state equals b0 at the first observation time (point initial
    condition), matching the particle filter's initialization.
    """
    if om.kind != "gaussian":
        raise ValueError("Kalman oracle requires a gaussian observation model")
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    phi, offset, var = ou_transition_moments(p, np.diff(times))
    return LinearGaussianSSM(F=phi, b=offset, Q=var, R=om.scale**2, m0=p.b0, P0=0.0)
