"""Linear-Gaussian state-space models and the Kalman filter.

This is the exact-likelihood oracle used to validate the particle filter:
for an OU state observed with Gaussian noise the prediction-error
decomposition gives the likelihood in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalSingularityError
from .models import OuParams
from .observe import NoisyObservationSet, ObservationModel
from .simulate import ou_transition_moments


@dataclass(frozen=True)
class LinearGaussianSSM:
    """x_k = F_k x_{k-1} + b_k + w_k,  w_k ~ N(0, Q_k),  k = 1..n-1
    y_k = H x_k + v_k,  v_k ~ N(0, R),  x_0 ~ N(m0, P0).

    F, b, Q hold one entry per transition (n-1 of them); the first
    observation is matched against the initial distribution directly.
    """

    F: np.ndarray
    b: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    m0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        for name in ("F", "b", "Q", "H", "R", "m0", "P0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        d = len(self.m0)
        if self.F.shape[1:] != (d, d) or self.Q.shape[1:] != (d, d):
            raise ValueError("transition blocks must be (n-1, d, d)")
        if self.b.shape[1:] != (d,) or not (len(self.b) == len(self.F) == len(self.Q)):
            raise ValueError("per-step arrays must have matching lengths")
        for name in ("Q", "P0", "R"):
            mats = getattr(self, name)
            sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
            if np.any(np.linalg.eigvalsh(sym) < -1e-10):
                raise ValueError(f"{name} must be positive semi-definite")

    @property
    def state_dim(self) -> int:
        return len(self.m0)

    @property
    def n_times(self) -> int:
        return len(self.F) + 1


@dataclass(frozen=True)
class KalmanResult:
    loglik: float
    filtered_means: np.ndarray
    filtered_covs: np.ndarray


def kalman_filter(ssm: LinearGaussianSSM, y: np.ndarray) -> KalmanResult:
    y = np.asarray(y, dtype=float)
    y = y[:, None] if y.ndim == 1 else y
    n = len(y)
    if n != ssm.n_times:
        raise ValueError(f"SSM defines {ssm.n_times} time points, got {n} observations")
    d = ssm.state_dim
    H, R = ssm.H, ssm.R
    m, P = ssm.m0.copy(), ssm.P0.copy()
    means = np.empty((n, d))
    covs = np.empty((n, d, d))
    loglik = 0.0
    for k in range(n):
        if k > 0:
            F, b, Q = ssm.F[k - 1], ssm.b[k - 1], ssm.Q[k - 1]
            m = F @ m + b
            P = F @ P @ F.T + Q
        v = y[k] - H @ m
        S = H @ P @ H.T + R
        det = np.linalg.det(S)
        if not np.isfinite(det) or det <= 0:
            raise NumericalSingularityError(f"singular innovation variance at step {k}")
        Sinv = np.linalg.inv(S)
        K = P @ H.T @ Sinv
        m = m + K @ v
        P = P - K @ H @ P
        loglik += -0.5 * (len(v) * np.log(2.0 * np.pi) + np.log(det) + v @ Sinv @ v)
        means[k] = m
        covs[k] = P
    return KalmanResult(loglik=float(loglik), filtered_means=means, filtered_covs=covs)


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
    return LinearGaussianSSM(
        F=phi[:, None, None],
        b=offset[:, None],
        Q=var[:, None, None],
        H=np.array([[1.0]]),
        R=np.array([[om.scale**2]]),
        m0=np.array([p.b0]),
        P0=np.array([[0.0]]),
    )
