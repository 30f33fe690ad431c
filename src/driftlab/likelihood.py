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

from . import bridge, densities
from .errors import InvalidStartError, NonFiniteTermError
from .fokker_planck import fokker_planck_transition_density
from .models import DiffusionSpec, GbmParams, OuParams
from .observe import ObservationSet
from .results import FitResult


class TransitionDensity:
    """A model's transition density and the free parameters an optimizer moves.

    ``logdensities(dts, x, y)`` returns log p_theta(dts[i], x[i], y[i]) for
    every pair i in one call, so irregular observation times cost no extra
    calls; ``pair_logdensities`` is the one place an ObservationSet becomes
    such pairs.
    """

    kind: str

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def positive_mask(self) -> tuple:
        raise NotImplementedError

    def with_theta(self, theta) -> "TransitionDensity":
        raise NotImplementedError

    def logdensities(self, dts, x, y) -> np.ndarray:
        raise NotImplementedError

    def pair_logdensities(self, obs: ObservationSet) -> np.ndarray:
        """One log-density per consecutive observation pair."""
        values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
        return self.logdensities(np.diff(obs.times), values[:-1], values[1:])


class _ClosedFormDensity(TransitionDensity):
    """Closed-form density of a params dataclass: theta is its ``free`` fields,
    and those named in ``positive`` are optimized on the log scale."""

    @property
    def theta(self):
        return np.array([getattr(self.params, f) for f in self.free])

    @property
    def positive_mask(self):
        return tuple(f in self.positive for f in self.free)

    def with_theta(self, theta):
        updates = {f: float(v) for f, v in zip(self.free, np.atleast_1d(theta))}
        return replace(self, params=replace(self.params, **updates))


@dataclass(frozen=True)
class GbmDensity(_ClosedFormDensity):
    """Closed-form lognormal GBM transition; free parameters a subset of (beta, sigma)."""

    params: GbmParams
    free: tuple = ("beta", "sigma")
    kind = "closed_form_gbm"
    positive = ("sigma",)

    def logdensities(self, dts, x, y):
        return densities.gbm_transition_logdensity(self.params, dts, x, y)


@dataclass(frozen=True)
class OuDensity(_ClosedFormDensity):
    """Closed-form Gaussian OU transition; free parameters a subset of
    (gamma, beta_bar, sigma)."""

    params: OuParams
    free: tuple = ("gamma", "beta_bar", "sigma")
    kind = "closed_form_ou"
    positive = ("gamma", "sigma")

    def logdensities(self, dts, x, y):
        return densities.ou_transition_logdensity(self.params, dts, x, y)


@dataclass(frozen=True)
class _SpecDensity(TransitionDensity):
    """Density of a DiffusionSpec model: theta and its positivity mask are the spec's."""

    spec: DiffusionSpec

    @property
    def theta(self):
        return self.spec.theta

    @property
    def positive_mask(self):
        return self.spec.positive or tuple(False for _ in self.spec.theta)

    def with_theta(self, theta):
        return replace(self, spec=self.spec.with_theta(theta))


class EulerDensity(_SpecDensity):
    """One-step Euler Gaussian approximation for an arbitrary scalar spec."""

    kind = "euler"

    def logdensities(self, dts, x, y):
        return densities.euler_transition_logdensity(self.spec, dts, x, y)


@dataclass(frozen=True)
class FokkerPlanckDensity(_SpecDensity):
    """Transition density from a Crank-Nicolson forward-equation solve, one
    solve per observation pair on one spatial grid; the density at y is
    interpolated linearly on the grid and floored at 1e-300 to stay finite."""

    y_min: float
    y_max: float
    n_cells: int = 400
    n_time_steps: int = 200
    kind = "fokker_planck"

    def logdensities(self, dts, x, y):
        grid = np.linspace(self.y_min, self.y_max, self.n_cells + 1)
        dens = np.array([
            np.interp(yi, grid, fokker_planck_transition_density(
                self.spec, dt, xi, grid, n_time_steps=self.n_time_steps).density)
            for dt, xi, yi in zip(dts, x, y)
        ])
        return np.log(np.maximum(dens, 1e-300))


@dataclass(frozen=True)
class BridgeDensity(_SpecDensity):
    """Importance-sampled transition density on a latent fine grid."""

    m_sub: int = 8
    j_samples: int = 200
    seed: int = 0
    kind = "bridge_mc"

    def logdensities(self, dts, x, y):
        return bridge.logdensities(self.spec, dts, x, y, self.m_sub, self.j_samples,
                                   self.seed)


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
