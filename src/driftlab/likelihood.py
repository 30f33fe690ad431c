"""Discrete-observation log-likelihoods and maximum-likelihood fitting.

A ``TransitionDensity`` bundles a model with one way of evaluating its
transition density (closed form, Euler, Fokker-Planck solve, or bridge Monte
Carlo) and exposes the free parameter vector; ``mle_fit`` maximizes the
resulting log-likelihood by a derivative-free simplex search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np

from . import bridge, densities
from .errors import (
    DriftlabError,
    InsufficientDataError,
    InvalidGridError,
    InvalidStartError,
    NonFiniteTermError,
    UnsupportedDimensionError,
)
from .fokker_planck import check_time_steps, fokker_planck_solve, require_per_pair
from .models import DiffusionSpec, GbmParams, OuParams
from .observe import ObservationSet
from .results import FitResult


class TransitionDensity:
    """A model's transition density and the free parameters an optimizer moves.

    ``record_terms(dts, x, y)``, the one method a density implements, checks
    a record of observation pairs and prepares its theta-free work once
    (arrays, grids, frozen Monte Carlo draws), and returns theta -> the
    log-densities log p_theta(dts[i], x[i], y[i]) of every pair i in one
    call, so irregular observation times cost no extra calls.
    """

    kind: str

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def positive_mask(self) -> tuple:
        raise NotImplementedError

    def record_terms(self, dts, x, y):
        raise NotImplementedError

    def logdensities(self, dts, x, y) -> np.ndarray:
        return self.record_terms(dts, x, y)(self.theta)


class _ClosedFormDensity(TransitionDensity):
    """Closed-form density of a params dataclass: theta is its ``free`` fields,
    and those named in ``positive`` are optimized on the log scale."""

    @property
    def theta(self):
        return np.array([getattr(self.params, f) for f in self.free])

    @property
    def positive_mask(self):
        return tuple(f in self.positive for f in self.free)

    def _params_at(self, theta):
        updates = {f: float(v) for f, v in zip(self.free, np.atleast_1d(theta))}
        return replace(self.params, **updates)

    def record_terms(self, dts, x, y):
        record = self.record(dts, x, y)
        return lambda theta: self.record_logdensity(self._params_at(theta), record)


@dataclass(frozen=True)
class GbmDensity(_ClosedFormDensity):
    """Closed-form lognormal GBM transition; free parameters a subset of (beta, sigma)."""

    params: GbmParams
    free: tuple = ("beta", "sigma")
    kind = "closed_form_gbm"
    positive = ("sigma",)
    record = staticmethod(densities.gbm_record)
    record_logdensity = staticmethod(densities.gbm_record_logdensity)


@dataclass(frozen=True)
class OuDensity(_ClosedFormDensity):
    """Closed-form Gaussian OU transition; free parameters a subset of
    (gamma, beta_bar, sigma)."""

    params: OuParams
    free: tuple = ("gamma", "beta_bar", "sigma")
    kind = "closed_form_ou"
    positive = ("gamma", "sigma")
    record = staticmethod(densities.record_arrays)
    record_logdensity = staticmethod(densities.ou_record_logdensity)


@dataclass(frozen=True)
class _SpecDensity(TransitionDensity):
    """Density of a scalar DiffusionSpec model: theta and its positivity mask
    are the spec's."""

    spec: DiffusionSpec

    def __post_init__(self):
        if self.spec.state_dim != 1:
            raise UnsupportedDimensionError(f"{type(self).__name__} handles scalar models "
                                            f"only, got state_dim {self.spec.state_dim}")

    @property
    def theta(self):
        return self.spec.theta

    @property
    def positive_mask(self):
        return self.spec.positive or tuple(False for _ in self.spec.theta)


class EulerDensity(_SpecDensity):
    """One-step Euler Gaussian approximation for an arbitrary scalar spec."""

    kind = "euler"

    def record_terms(self, dts, x, y):
        record = densities.record_arrays(dts, x, y)
        return lambda theta: densities.euler_record_logdensity(self.spec, record, theta)


@dataclass(frozen=True)
class FokkerPlanckDensity(_SpecDensity):
    """Transition density from a Crank-Nicolson forward-equation solve on one
    spatial grid, all observation pairs in one stacked solve; the density at y
    is interpolated linearly on the grid and floored at 1e-300 to stay finite.
    Every observation y must lie on the grid, in [y_min, y_max]."""

    y_min: float
    y_max: float
    n_cells: int = 400
    n_time_steps: int = 200
    kind = "fokker_planck"

    def __post_init__(self):
        super().__post_init__()
        check_time_steps(self.n_time_steps)

    def record_terms(self, dts, x, y):
        grid = np.linspace(self.y_min, self.y_max, self.n_cells + 1)
        y = np.asarray(y, dtype=float).reshape(-1)
        require_per_pair((grid[0] <= y) & (y <= grid[-1]), InvalidGridError,
                         f"observation y must lie inside the grid [{self.y_min:g}, "
                         f"{self.y_max:g}]", "y", y)

        def at(theta):
            rows = np.clip(fokker_planck_solve(self.spec.with_theta(theta), dts, x, grid,
                                               self.n_time_steps), 0.0, None)
            dens = np.array([np.interp(yi, grid, row) for yi, row in zip(y, rows)])
            return np.log(np.maximum(dens, 1e-300))
        return at


@dataclass(frozen=True)
class BridgeDensity(_SpecDensity):
    """Importance-sampled transition density on a latent fine grid.

    ``record_terms`` draws the record's proposal normals once and every theta
    reuses them (common random numbers), so a fit's objective is a smooth,
    deterministic function of theta.
    """

    m_sub: int = 8
    j_samples: int = 200
    seed: int = 0
    kind = "bridge_mc"

    def record_terms(self, dts, x, y):
        z = bridge.proposal_normals(len(dts), self.m_sub, self.j_samples, self.seed)
        return lambda theta: bridge.logdensities(self.spec.with_theta(theta), dts, x, y, z)


def discrete_loglikelihood(td: TransitionDensity, obs: ObservationSet) -> float:
    """Sum of transition log-densities over consecutive observation pairs.

    The first observation is conditioned on and contributes no term.  A
    non-finite term raises NonFiniteTermError naming the offending pair.
    """
    record_terms = td.record_terms(*obs.pairs())
    with np.errstate(all="ignore"):
        return _loglik_at(record_terms, td.theta)


def bridge_loglikelihood(spec: DiffusionSpec, obs: ObservationSet, m_sub: int,
                         j_samples: int, seed) -> float:
    """Sum of bridge-sampled transition log-densities over consecutive pairs."""
    return discrete_loglikelihood(BridgeDensity(spec, m_sub, j_samples, seed), obs)


def _loglik_at(record_terms, theta) -> float:
    """Sum of the terms at theta, under the caller's ``np.errstate``.  Only a
    non-finite sum is searched: NonFiniteTermError names the first non-finite
    term, and finite terms whose sum overflows return it (+-inf)."""
    terms = record_terms(theta)
    total = float(terms.sum())
    if not math.isfinite(total):
        bad = ~np.isfinite(terms)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NonFiniteTermError(i, float(terms[i]))
    return total


SIMPLEX_TOL = 1e-8  # Nelder-Mead fatol and xatol on the working scale
SIMPLEX_MAX_ITER = 2000  # iteration budget shared by the first pass and the restart


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
    return np.exp(theta, out=theta, where=np.asarray(positive_mask, dtype=bool))


def nelder_mead(fun, x0, maxiter, xatol, fatol):
    """Nelder & Mead's (1965) simplex: scipy 1.17's ``minimize(method="Nelder-Mead")``
    with only maxiter, xatol and fatol set, ported step for step onto Python
    floats.  It calls ``fun`` (with a new float64 array) at the same points and
    returns its x, fun, nit and success bit for bit, as (x, f, nit, ok)."""
    x0 = [float(v) for v in np.ravel(x0)]
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [float(fun(np.array(v))) for v in sim]

    def ordered():  # as scipy, by np.argsort of a float64 fsim: its order of ties
        idx = np.array(fsim).argsort()
        return [sim[i] for i in idx], [fsim[i] for i in idx]

    def trial(a, b):  # a * xbar + b * worst, and its value
        v = [a * m + b * w for m, w in zip(xbar, sim[-1])]
        return v, float(fun(np.array(v)))

    sim, fsim = ordered()
    sim, fsim = ordered()  # scipy sorts twice before its loop
    nit = 1
    while nit < maxiter:
        if (all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, sim[0]))
                and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])):
            break
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]  # from sim[0]: -0.0 stays
        xr, fxr = trial(2, -1)
        if fxr < fsim[0]:
            xe, fxe = trial(3, -2)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc, fxc = trial(1.5, -0.5) if outside else trial(0.5, 0.5)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                sim[1:] = [[a + 0.5 * (b - a) for a, b in zip(sim[0], v)] for v in sim[1:]]
                fsim[1:] = [float(fun(np.array(v))) for v in sim[1:]]
        nit += 1
        sim, fsim = ordered()
    return np.array(sim[0]), np.min(fsim), nit, nit < maxiter


def minimize_simplex(fun, x0):
    """Nelder-Mead with one restart from the incumbent; returns (x, f, nit, ok)."""
    x, fval, nit, ok = np.asarray(x0, dtype=float), np.inf, 0, False
    budget = SIMPLEX_MAX_ITER
    for _ in range(2):
        x_run, f_run, nit_run, ok_run = nelder_mead(fun, x, budget, SIMPLEX_TOL, SIMPLEX_TOL)
        nit += nit_run
        budget -= nit_run
        if f_run <= fval:
            x, fval, ok = x_run, f_run, ok_run
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


def mle_fit(td: TransitionDensity, obs: ObservationSet, init_theta, seed: int = 0,
            compute_stderr: bool = True) -> FitResult:
    """Maximize the discrete-observation log-likelihood over the free parameters.

    Positivity-constrained parameters are optimized on the log scale.
    Non-convergence is reported through ``converged=False``, not an exception;
    a non-finite objective at the start raises InvalidStartError, and fewer
    observation pairs than free parameters raises InsufficientDataError.
    Standard errors whose probes raise a DriftlabError are None.
    """
    mask = np.array(td.positive_mask, dtype=bool)
    init_theta = np.atleast_1d(np.asarray(init_theta, dtype=float))
    z0 = to_working(init_theta, mask)
    record_terms = td.record_terms(*obs.pairs())

    def loglik(theta):
        try:
            return _loglik_at(record_terms, theta)
        except NonFiniteTermError:
            return -np.inf

    seen = {}  # working point bytes -> objective: the simplex revisits points

    def neg(z):
        key = z.tobytes()
        if key not in seen:
            val = loglik(from_working(z, mask))
            seen[key] = -val if math.isfinite(val) else np.inf
        return seen[key]

    with np.errstate(all="ignore"):
        if not np.isfinite(neg(z0)):
            raise InvalidStartError(f"log-likelihood non-finite at init_theta={init_theta}")
        k = len(init_theta)
        if len(obs) - 1 < k:
            raise InsufficientDataError(f"mle needs at least {k} observation pairs for "
                                        f"{k} free parameters, got {len(obs) - 1}")

        z_hat, fval, nit, ok = minimize_simplex(neg, z0)
        theta_hat = from_working(z_hat, mask)
        diagnostics = {"optimizer": "nelder-mead", "kind": td.kind}
        stderr = None
        if compute_stderr:
            try:
                stderr, log_scaled = _hessian_stderr(loglik, theta_hat, mask)
            except DriftlabError:
                log_scaled = ()
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
