"""Discrete-observation log-likelihoods and maximum-likelihood fitting.

A ``TransitionDensity`` bundles a model with one way of evaluating its
transition density (closed form, Euler, Fokker-Planck solve, or bridge Monte
Carlo) and exposes the free parameter vector; ``mle_fit`` maximizes the
resulting log-likelihood, by Fisher scoring where the density is Gaussian
(closed form, Euler), by Newton steps on a differenced Hessian otherwise
(bridge, Fokker-Planck), and by a derivative-free simplex where either stalls.
Newton steps and standard errors difference by one working-scale rule.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.optimize import minimize

from . import bridge, densities
from .errors import (
    DegenerateDensityError,
    DegenerateImportanceError,
    DriftlabError,
    InsufficientDataError,
    InvalidGridError,
    InvalidStartError,
    NonFiniteTermError,
    UnsupportedDimensionError,
    _fp_policy,
)
from .fokker_planck import check_time_steps, fokker_planck_solve, require_per_pair
from .models import DiffusionSpec, GbmParams, OuParams
from .observe import ObservationSet
from .results import FitResult


class TransitionDensity:
    """A model's transition density and the free parameters an optimizer moves.

    ``record_terms(dts, x, y)``, the one method a density implements (a
    Gaussian one through ``record_moments``), checks a record of observation
    pairs and prepares its theta-free work once (arrays, grids, frozen Monte
    Carlo draws), and returns theta -> the log-densities log p_theta(dts[i],
    x[i], y[i]) of every pair i in one call, so irregular times cost no extra calls.
    One that also takes an (m, k) stack, returning (m, n_pairs) terms (row i those at theta i),
    sets ``stacks``; fits call others row by row, and each row alone where a stack raises.
    """

    kind: str
    stacks = False

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def positive_mask(self) -> tuple:
        raise NotImplementedError

    def record_terms(self, dts, x, y):
        raise NotImplementedError

    @_fp_policy()
    def logdensities(self, dts, x, y) -> np.ndarray:
        return self.record_terms(dts, x, y)(self.theta)


class _GaussianDensity(TransitionDensity):
    """A density Gaussian in a per-pair target: ``record_moments(dts, x, y)`` returns
    (theta -> every pair's (target, mean, variance), at an (m, k) stack (n,), (m, n), (m, n);
    the theta-free log Jacobian of the target), and the log-density is the one formula below."""

    stacks = True

    def record_terms(self, dts, x, y):
        return self.terms(*self.record_moments(dts, x, y))

    @staticmethod
    def terms(moments, log_jacobian):
        return lambda theta: densities.normal_logpdf(*moments(theta)) - log_jacobian


class _ClosedFormDensity(_GaussianDensity):
    """Closed-form density of a params dataclass: theta is its ``free`` fields,
    and those named in ``positive`` are optimized on the log scale."""

    @property
    def theta(self):
        return np.array([getattr(self.params, f) for f in self.free])

    @property
    def positive_mask(self):
        return tuple(f in self.positive for f in self.free)

    def _params_at(self, theta):
        """The params at a 1-D theta (floats) or (m, k) stack ((m, 1) columns, checked by row)."""
        theta = np.atleast_1d(theta)
        if theta.ndim == 1:
            return replace(self.params, **{f: float(v) for f, v in zip(self.free, theta)})
        fixed = {f: np.full((len(theta), 1), v) for f, v in vars(self.params).items()
                 if f not in self.free}
        return replace(self.params, **fixed, **dict(zip(self.free, theta.T[:, :, None])))


@dataclass(frozen=True)
class GbmDensity(_ClosedFormDensity):
    """Closed-form lognormal GBM transition; free parameters a subset of (beta, sigma)."""

    params: GbmParams
    free: tuple = ("beta", "sigma")
    kind = "closed_form_gbm"
    positive = ("sigma",)

    def record_moments(self, dts, x, y):
        dt, r, log_y = densities.gbm_record(dts, x, y)
        return lambda theta: densities.gbm_moments(self._params_at(theta), dt, r), log_y


@dataclass(frozen=True)
class OuDensity(_ClosedFormDensity):
    """Closed-form Gaussian OU transition; free parameters a subset of
    (gamma, beta_bar, sigma)."""

    params: OuParams
    free: tuple = ("gamma", "beta_bar", "sigma")
    kind = "closed_form_ou"
    positive = ("gamma", "sigma")

    def record_moments(self, dts, x, y):
        record = densities.record_arrays(dts, x, y)
        return lambda theta: densities.ou_moments(self._params_at(theta), record), 0.0


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


class EulerDensity(_GaussianDensity, _SpecDensity):
    """One-step Euler Gaussian approximation for an arbitrary scalar spec."""

    kind = "euler"

    def record_moments(self, dts, x, y):
        record = densities.record_arrays(dts, x, y)
        moments = partial(densities.euler_moments, self.spec, record)
        columns = []  # [whether drift and diffusion take a stack as columns], on the first stack

        def at(theta):  # a stack in one call where drift and diffusion take columns, else by rows
            if np.ndim(theta) == 2 and not columns:
                columns.append(densities.takes_columns(self.spec, record[1]))
            if np.ndim(theta) < 2 or columns[0]:
                return moments(theta)
            target, mean, var = map(np.array, zip(*map(moments, theta)))
            return target[0], mean, var
        return at, 0.0


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

    ``record_terms`` draws and prepares the record's proposal normals once and
    every theta reuses them (common random numbers), so a fit's objective is a
    smooth, deterministic function of theta.
    """

    m_sub: int = 8
    j_samples: int = 200
    seed: int = 0
    kind = "bridge_mc"
    stacks = True

    def record_terms(self, dts, x, y):
        dts, x, y = densities.record_arrays(dts, x, y)
        record = bridge.prepare_record(dts, x, y, bridge.proposal_normals(
            len(dts), self.m_sub, self.j_samples, self.seed))
        m = bridge.stack_size(self.spec, record)

        def at(theta):
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            if theta.ndim == 1:
                return bridge.record_logdensities(self.spec, theta, record)
            return np.vstack([bridge.record_logdensities(
                self.spec, theta[i:i + m] if m > 1 else theta[i], record)
                for i in range(0, len(theta), m)])
        return at


@_fp_policy()
def discrete_loglikelihood(td: TransitionDensity, obs: ObservationSet) -> float:
    """Sum of transition log-densities over consecutive observation pairs.

    The first observation is conditioned on and contributes no term.  A
    non-finite term raises NonFiniteTermError naming the offending pair.
    """
    return _loglik_at(td.record_terms(*obs.pairs()), td.theta)


def bridge_loglikelihood(spec: DiffusionSpec, obs: ObservationSet, m_sub: int,
                         j_samples: int, seed) -> float:
    """Sum of bridge-sampled transition log-densities over consecutive pairs."""
    return discrete_loglikelihood(BridgeDensity(spec, m_sub, j_samples, seed), obs)


def _loglik_at(record_terms, theta) -> float:
    """Sum of the terms at theta, under the entry point's floating-point policy.  Only a
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


def _logliks(record_terms, thetas, stacks) -> list:
    """The log-likelihood at each row of an (m, k) stack of thetas, in one call where the
    density ``stacks`` and m > 1: -inf where a row raises a DriftlabError or a ValueError
    (a theta outside the model, say a scale whose exp underflowed to 0)."""
    if stacks and len(thetas) > 1:
        with suppress(DriftlabError, ValueError):  # else row by row, to find the rows that raise
            return [float(terms.sum()) for terms in record_terms(thetas)]
    logliks = [-np.inf] * len(thetas)
    for i, theta in enumerate(thetas):
        with suppress(DriftlabError, ValueError):
            logliks[i] = float(record_terms(theta).sum())
    return logliks


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


def minimize_simplex(fun, x0):
    """scipy's Nelder-Mead with one restart from the incumbent; returns (x, f, nit, ok)."""
    x, fval, nit, ok = np.asarray(x0, dtype=float), np.inf, 0, False
    budget = SIMPLEX_MAX_ITER
    for _ in range(2):
        run = minimize(fun, x, method="Nelder-Mead",
                       options={"maxiter": budget, "xatol": SIMPLEX_TOL, "fatol": SIMPLEX_TOL})
        nit += run.nit
        budget -= run.nit
        if run.fun <= fval:
            x, fval, ok = run.x, run.fun, run.success
        if budget <= 0:
            ok = False
            break
    return x, fval, nit, ok


def _score_and_fisher(moments, z, mask):
    """Score sum (r/v) dm + (r^2/v^2 - 1/v) dv / 2 and Fisher information
    sum dm dm'/v + dv dv'/(2 v^2) of a Gaussian record at working point z, where
    r = target - mean and dm, dv difference the mean and variance v at 1e-6 * max(|z|, 1):
    z and its probes z + h_i e_i, z - h_i e_i go to ``moments`` as one (2k + 1, k) stack."""
    h = 1e-6 * np.maximum(np.abs(z), 1.0)
    probes = [z] + [d for e in np.diag(h) for d in (z + e, z - e)]
    target, means, variances = moments(from_working(np.array(probes), mask))
    dm, dv = ((a[1::2] - a[2::2]) / (2.0 * h[:, None]) for a in (means, variances))
    r, var = target - means[0], variances[0]
    score = dm @ (r / var) + 0.5 * (dv @ (r**2 / var**2 - 1.0 / var))
    return score, (dm / var) @ dm.T + (dv / (2.0 * var**2)) @ dv.T


def descend(fun, step_at, z0, max_steps=100):
    """Minimize ``fun`` from working point z0 by steps ``step_at(z)``, each halved
    until ``fun`` does not rise; returns (z, f, nit, ok), ok once an accepted step
    moves each coordinate by at most 1e-9 * max(|z|, 1).  It stalls (ok False) on a step
    that raises (LinAlgError, DriftlabError, ValueError) or is not finite, on halving below
    1e-10 and after max_steps steps, the one safeguard of Dennis & Schnabel (1983, ch. 6)."""
    z, f = z0, fun(z0)
    for nit in range(1, max_steps + 1):
        try:
            step = step_at(z)
        except (np.linalg.LinAlgError, DriftlabError, ValueError):
            break
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        while (f_new := fun(z + t * step)) > f:
            t *= 0.5
            if t < 1e-10:
                return z, f, nit, False
        done = np.all(np.abs(t * step) <= 1e-9 * np.maximum(np.abs(z), 1.0))
        z, f = z + t * step, f_new
        if done:
            return z, f, nit, True
    return z, f, nit, False


def fisher_step(moments, mask, z):
    """Fisher^-1 score at working point z of a Gaussian record with per-theta ``moments``."""
    score, fisher = _score_and_fisher(moments, z, mask)
    return np.linalg.solve(fisher, score)


def newton_step(fun, z):
    """Newton's -H^-1 g for ``fun``, a function of an (m, k) stack of points, at z: g, H by
    ``_working_differences``, H's eigenvalues as |lambda| >= 1e-8 * max |lambda| so it
    descends off the convex region too; ``descend`` judges a non-finite step."""
    grad, hess = _working_differences(fun, z, fun(z[None])[0])
    lam, vec = np.linalg.eigh(hess)
    return -vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), 1e-8 * np.max(np.abs(lam))))


def _working_differences(fun, z, f_z):
    """Gradient and Hessian at z of ``fun`` (of an (m, k) stack of points; f_z = fun at z):
    central differences at 1e-4 * max(|z|, 1) (Dennis & Schnabel 1983, sec. 5.4)."""
    return _central_differences(lambda dz: fun(z + dz), f_z, 1e-4 * np.maximum(np.abs(z), 1.0))


def _central_differences(f, f0, h):
    """Gradient and Hessian at 0 of f, f0 = f at 0, by central differences with steps h:
    +-h_i e_i give the gradient and diagonal, four corners the rest, all in one call of f."""
    k, e = len(h), np.diag(h)
    corners = [(i, j) for i in range(k) for j in range(i + 1, k)]
    vals = iter(f(np.array([d for i in range(k) for d in (e[i], -e[i])]
                           + [d for i, j in corners
                              for d in (e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j])])))
    grad, hess = np.empty(k), np.empty((k, k))
    for i in range(k):
        f_up, f_dn = next(vals), next(vals)
        grad[i] = (f_up - f_dn) / (2.0 * h[i])
        hess[i, i] = (f_up - 2.0 * f0 + f_dn) / h[i] ** 2
    for i, j in corners:  # (f(++) - f(+-) - f(-+) + f(--)) / (4 h_i h_j)
        hess[i, j] = hess[j, i] = (next(vals) - next(vals) - next(vals)
                                   + next(vals)) / (4.0 * h[i] * h[j])
    return grad, hess


@_fp_policy()
def mle_fit(td: TransitionDensity, obs: ObservationSet, init_theta, seed: int = 0,
            compute_stderr: bool = True) -> FitResult:
    """Maximize the discrete-observation log-likelihood over the free parameters.

    Positivity-constrained parameters are optimized on the log scale by
    ``descend`` with a ``fisher_step`` for a Gaussian density, and for any
    other (bridge, Fokker-Planck) with a ``newton_step``.  A stalled pass hands
    over to ``minimize_simplex`` from the same start; non-convergence is reported
    through ``converged=False``.  A non-finite objective at the start raises
    InvalidStartError, and fewer observation pairs than free parameters raises
    InsufficientDataError.  Standard errors are the Newton step's
    ``_working_differences`` at the estimate, se(theta) = theta * se(log theta) for
    a positive parameter (``diagnostics["stderr_log_scale"]``); they are None where
    the Hessian is singular, a variance is not positive and finite, or the probes
    raise (a probe or trial point that raises a DriftlabError counts as -inf).
    """
    mask = np.array(td.positive_mask, dtype=bool)
    init_theta = np.atleast_1d(np.asarray(init_theta, dtype=float))
    z0 = to_working(init_theta, mask)
    gaussian = isinstance(td, _GaussianDensity)  # one preparation serves terms and score
    prepared = td.record_moments(*obs.pairs()) if gaussian else None
    record_terms = td.terms(*prepared) if gaussian else td.record_terms(*obs.pairs())

    logliks = partial(_logliks, record_terms, stacks=td.stacks)
    cause = None
    try:
        f0 = -_loglik_at(record_terms, from_working(z0, mask))
    except (NonFiniteTermError, DegenerateDensityError, DegenerateImportanceError,
            ValueError) as exc:  # the bridge names a degenerate start: chained
        f0, cause = np.inf, exc
    if not math.isfinite(f0):
        raise InvalidStartError(f"log-likelihood non-finite at init_theta={init_theta}") from cause
    seen = {z0.tobytes(): f0}  # working point bytes -> objective: the simplex revisits points

    def negs(zs):  # trial points and a Newton step's probes: those not yet seen, in one call
        new = [z for z in zs if z.tobytes() not in seen]
        for z, val in zip(new, logliks(np.array([from_working(z, mask) for z in new]))):
            seen[z.tobytes()] = -val if math.isfinite(val) else np.inf
        return [seen[z.tobytes()] for z in zs]

    def neg(z):
        return negs([z])[0]

    k = len(init_theta)
    if len(obs) - 1 < k:
        raise InsufficientDataError(f"mle needs at least {k} observation pairs for "
                                    f"{k} free parameters, got {len(obs) - 1}")

    step = partial(fisher_step, prepared[0], mask) if gaussian else partial(newton_step, negs)
    z_hat, fval, nit, ok = descend(neg, step, z0)
    optimizer = ("fisher-scoring" if gaussian else "newton") if ok else "nelder-mead"
    if not ok:  # the pass stalled: the simplex, from the same start
        z_hat, fval, nit, ok = minimize_simplex(neg, z0)
    theta_hat = from_working(z_hat, mask)
    diagnostics = {"optimizer": optimizer, "kind": td.kind}
    stderr = None
    if compute_stderr:  # the observed information at z_hat, by the delta method
        _, hess = _working_differences(lambda zs: logliks(from_working(zs, mask)), z_hat, -fval)
        with suppress(np.linalg.LinAlgError):
            var = np.diag(np.linalg.inv(-hess))
            if np.all((0 < var) & (var < np.inf)):
                stderr = np.sqrt(var) * np.where(mask, theta_hat, 1.0)
        if np.any(mask):
            diagnostics["stderr_log_scale"] = mask.tolist()
    return FitResult(
        theta_hat=theta_hat,
        objective_value=-fval,
        iterations=nit,
        converged=ok,
        seed=seed,
        standard_errors=stderr,
        diagnostics=diagnostics,
    )
