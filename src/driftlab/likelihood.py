"""Discrete-observation log-likelihoods and maximum-likelihood fitting.

A ``TransitionDensity`` bundles a model with one way of evaluating its
transition density (closed form, Euler, Fokker-Planck solve, or bridge Monte
Carlo) and exposes the free parameter vector; ``mle_fit`` maximizes the
resulting log-likelihood by a derivative-free simplex search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import densities
from .bridge import bridge_pair_logdensity
from .errors import InvalidStartError, NonFiniteTermError
from .fokker_planck import fokker_planck_transition_density
from .models import DiffusionSpec, GbmParams, OuParams
from .observe import ObservationSet
from .results import FitResult


class TransitionDensity:
    """Base class: evaluates log p_theta(dt, x, y) and exposes free parameters."""

    kind: str

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def positive_mask(self) -> tuple:
        raise NotImplementedError

    def with_theta(self, theta) -> "TransitionDensity":
        raise NotImplementedError

    def logpdf(self, dt: float, x: float, y: float, pair: int = 0) -> float:
        raise NotImplementedError

    def pair_logdensities(self, obs: ObservationSet) -> np.ndarray:
        """One log-density per consecutive observation pair."""
        values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
        dts = np.diff(obs.times)
        return np.array([
            self.logpdf(dts[i], values[i], values[i + 1], pair=i)
            for i in range(len(dts))
        ])


class GbmDensity(TransitionDensity):
    """Closed-form lognormal GBM transition; free parameters a subset of (beta, sigma)."""

    kind = "closed_form_gbm"

    def __init__(self, params: GbmParams, free=("beta", "sigma")):
        self.params = params
        self.free = tuple(free)

    @property
    def theta(self):
        return np.array([getattr(self.params, f) for f in self.free])

    @property
    def positive_mask(self):
        return tuple(f == "sigma" for f in self.free)

    def with_theta(self, theta):
        updates = dict(zip(self.free, np.atleast_1d(theta)))
        return GbmDensity(replace(self.params, **{k: float(v) for k, v in updates.items()}),
                          free=self.free)

    def logpdf(self, dt, x, y, pair=0):
        return float(densities.gbm_transition_logdensity(self.params, dt, x, y))

    def pair_logdensities(self, obs):
        values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
        out = np.empty(len(obs) - 1)
        dts = np.diff(obs.times)
        for dt in np.unique(dts):
            m = dts == dt
            out[m] = densities.gbm_transition_logdensity(
                self.params, dt, values[:-1][m], values[1:][m])
        return out


class OuDensity(TransitionDensity):
    """Closed-form Gaussian OU transition; free parameters a subset of
    (gamma, beta_bar, sigma)."""

    kind = "closed_form_ou"

    def __init__(self, params: OuParams, free=("gamma", "beta_bar", "sigma")):
        self.params = params
        self.free = tuple(free)

    @property
    def theta(self):
        return np.array([getattr(self.params, f) for f in self.free])

    @property
    def positive_mask(self):
        return tuple(f in ("gamma", "sigma") for f in self.free)

    def with_theta(self, theta):
        updates = dict(zip(self.free, np.atleast_1d(theta)))
        return OuDensity(replace(self.params, **{k: float(v) for k, v in updates.items()}),
                         free=self.free)

    def logpdf(self, dt, x, y, pair=0):
        return float(densities.ou_transition_logdensity(self.params, dt, x, y))

    def pair_logdensities(self, obs):
        values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
        out = np.empty(len(obs) - 1)
        dts = np.diff(obs.times)
        for dt in np.unique(dts):
            m = dts == dt
            out[m] = densities.ou_transition_logdensity(
                self.params, dt, values[:-1][m], values[1:][m])
        return out


class EulerDensity(TransitionDensity):
    """One-step Euler Gaussian approximation for an arbitrary scalar spec."""

    kind = "euler"

    def __init__(self, spec: DiffusionSpec):
        self.spec = spec

    @property
    def theta(self):
        return self.spec.theta

    @property
    def positive_mask(self):
        return self.spec.positive or tuple(False for _ in self.spec.theta)

    def with_theta(self, theta):
        return EulerDensity(self.spec.with_theta(theta))

    def logpdf(self, dt, x, y, pair=0):
        return float(densities.euler_transition_logdensity(self.spec, dt, x, y))

    def pair_logdensities(self, obs):
        values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
        out = np.empty(len(obs) - 1)
        dts = np.diff(obs.times)
        for dt in np.unique(dts):
            m = dts == dt
            out[m] = densities.euler_transition_logdensity(
                self.spec, dt, values[:-1][m], values[1:][m])
        return out


class FokkerPlanckDensity(TransitionDensity):
    """Transition density from a Crank-Nicolson forward-equation solve.

    The solve runs per observation pair on the configured spatial grid; the
    log-density at y is linearly interpolated on the grid with a small floor
    to keep it finite.
    """

    kind = "fokker_planck"

    def __init__(self, spec: DiffusionSpec, y_min: float, y_max: float,
                 n_cells: int = 400, n_time_steps: int = 200):
        self.spec = spec
        self.y_min = y_min
        self.y_max = y_max
        self.n_cells = n_cells
        self.n_time_steps = n_time_steps

    @property
    def theta(self):
        return self.spec.theta

    @property
    def positive_mask(self):
        return self.spec.positive or tuple(False for _ in self.spec.theta)

    def with_theta(self, theta):
        return FokkerPlanckDensity(self.spec.with_theta(theta), self.y_min, self.y_max,
                                   self.n_cells, self.n_time_steps)

    def logpdf(self, dt, x, y, pair=0):
        grid = np.linspace(self.y_min, self.y_max, self.n_cells + 1)
        result = fokker_planck_transition_density(self.spec, dt, x, grid,
                                                  n_time_steps=self.n_time_steps)
        dens = float(np.interp(y, grid, result.density))
        return float(np.log(max(dens, 1e-300)))


class BridgeDensity(TransitionDensity):
    """Importance-sampled transition density on a latent fine grid."""

    kind = "bridge_mc"

    def __init__(self, spec: DiffusionSpec, m_sub: int = 8, j_samples: int = 200,
                 seed: int = 0):
        self.spec = spec
        self.m_sub = m_sub
        self.j_samples = j_samples
        self.seed = seed

    @property
    def theta(self):
        return self.spec.theta

    @property
    def positive_mask(self):
        return self.spec.positive or tuple(False for _ in self.spec.theta)

    def with_theta(self, theta):
        return BridgeDensity(self.spec.with_theta(theta), self.m_sub, self.j_samples,
                             self.seed)

    def logpdf(self, dt, x, y, pair=0):
        return bridge_pair_logdensity(self.spec, dt, x, y, self.m_sub, self.j_samples,
                                      self.seed, pair=pair)


def discrete_loglikelihood(td: TransitionDensity, obs: ObservationSet) -> float:
    """Sum of transition log-densities over consecutive observation pairs.

    The first observation is conditioned on and contributes no term.  A
    non-finite term raises NonFiniteTermError naming the offending pair.
    """
    if len(obs) < 2:
        raise ValueError("need at least two observations")
    with np.errstate(all="ignore"):
        terms = td.pair_logdensities(obs)
    bad = ~np.isfinite(terms)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonFiniteTermError(i, float(terms[i]))
    return float(terms.sum())


@dataclass(frozen=True)
class SimplexOptions:
    f_tol: float = 1e-8
    x_tol: float = 1e-8
    max_iter: int = 2000
    restarts: int = 1


def to_working(theta, positive_mask):
    z = np.array(theta, dtype=float)
    for i, pos in enumerate(positive_mask):
        if pos:
            if not z[i] > 0:
                raise ValueError(f"parameter {i} must be positive, got {z[i]}")
            z[i] = np.log(z[i])
    return z


def from_working(z, positive_mask):
    theta = np.array(z, dtype=float)
    for i, pos in enumerate(positive_mask):
        if pos:
            theta[i] = np.exp(theta[i])
    return theta


def minimize_simplex(fun, x0, opts: SimplexOptions):
    """Nelder-Mead with one restart from the incumbent; returns (x, f, nit, ok)."""
    x, fval, nit, ok = np.asarray(x0, dtype=float), np.inf, 0, False
    budget = opts.max_iter
    for _ in range(opts.restarts + 1):
        res = minimize(fun, x, method="Nelder-Mead",
                       options={"fatol": opts.f_tol, "xatol": opts.x_tol,
                                "maxiter": budget, "disp": False})
        nit += res.nit
        budget -= res.nit
        if res.fun <= fval:
            x, fval, ok = res.x, res.fun, bool(res.success)
        if budget <= 0:
            ok = False
            break
    return x, fval, nit, ok


def _hessian_stderr(loglik, theta_hat, positive_mask):
    """Standard errors from the observed information (central differences).

    Probes step by 1e-4 * max(|theta|, 1).  A positive parameter at or below
    1e-4, which that step would push out of its domain, is differenced on the
    log scale instead: se(theta) = theta * se(log theta) by the delta method.
    Returns (stderr or None, log_scaled mask).
    """
    k = len(theta_hat)
    log_scaled = np.array(positive_mask, dtype=bool) & (theta_hat <= 1e-4)
    u_hat = theta_hat.copy()
    u_hat[log_scaled] = np.log(theta_hat[log_scaled])
    h = 1e-4 * np.maximum(np.abs(u_hat), 1.0)
    hess = np.empty((k, k))
    f0 = loglik(theta_hat)

    def f(offsets):
        u = u_hat + offsets
        u[log_scaled] = np.exp(u[log_scaled])
        return loglik(u)

    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        hess[i, i] = (f(ei) - 2.0 * f0 + f(-ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                f(ei + ej) - f(ei - ej) - f(-ei + ej) + f(-ei - ej)
            ) / (4.0 * h[i] * h[j])
    info = -hess
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return None, log_scaled
    diag = np.diag(cov)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        return None, log_scaled
    return np.sqrt(diag) * np.where(log_scaled, theta_hat, 1.0), log_scaled


def mle_fit(td: TransitionDensity, obs: ObservationSet, init_theta,
            opts: SimplexOptions | None = None, seed: int = 0,
            compute_stderr: bool = True) -> FitResult:
    """Maximize the discrete-observation log-likelihood over the free parameters.

    Positivity-constrained parameters are optimized on the log scale.
    Non-convergence is reported through ``converged=False``, not an exception;
    a non-finite objective at the start raises InvalidStartError.
    """
    opts = opts or SimplexOptions()
    mask = td.positive_mask
    init_theta = np.atleast_1d(np.asarray(init_theta, dtype=float))

    def loglik(theta):
        try:
            return discrete_loglikelihood(td.with_theta(theta), obs)
        except NonFiniteTermError:
            return -np.inf

    def neg(z):
        val = loglik(from_working(z, mask))
        return np.inf if not np.isfinite(val) else -val

    z0 = to_working(init_theta, mask)
    if not np.isfinite(neg(z0)):
        raise InvalidStartError(f"log-likelihood non-finite at init_theta={init_theta}")

    z_hat, fval, nit, ok = minimize_simplex(neg, z0, opts)
    theta_hat = from_working(z_hat, mask)
    diagnostics = {"optimizer": "nelder-mead", "kind": td.kind}
    stderr = None
    if compute_stderr:
        stderr, log_scaled = _hessian_stderr(loglik, theta_hat, mask)
        if np.any(log_scaled):
            diagnostics["stderr_log_scale"] = [bool(v) for v in log_scaled]
    return FitResult(
        theta_hat=theta_hat,
        objective_value=-fval,
        iterations=nit,
        converged=ok,
        seed=seed,
        standard_errors=stderr,
        diagnostics=diagnostics,
    )
