"""Monte Carlo estimating functions for discretely observed diffusions.

When the conditional expectation E[psi(X_s, X_t, theta) | X_s = x] has no
closed form it is estimated by J forward simulations from x.  Centering psi
by that estimate gives a martingale estimating function whose root estimates
theta; using J replicates instead of the exact expectation inflates the
estimator's asymptotic variance by the factor (1 + 1/J), so small J is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EstimationFailedError
from .ioutil import seed_key
from .models import DiffusionSpec
from .observe import ObservationSet
from .results import FitResult
from .rng import replicate_normals, stream
from .simulate import euler_advance

EULER_SUBSTEPS = 20  # Euler substeps per observation gap in the Monte Carlo expectation
NEWTON_MAX_ITER = 80


@dataclass(frozen=True)
class EstimatingFunction:
    """psi(x_s, x_t, theta) -> vector of length dim(theta), plus the replicate count J.

    ``psi`` must vectorize: given arrays x, y of shape (n,), it returns
    (n, dim_theta).
    """

    psi: Callable
    J: int

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("J must be at least 1")


def raw_moment_psi(orders=(1,)) -> Callable:
    """Polynomial moment functions psi_m(x, y, theta) = y^m for m in orders."""
    orders = tuple(orders)

    def psi(x, y, theta):
        y = np.asarray(y, dtype=float)
        return np.stack([y**m for m in orders], axis=-1)

    return psi


def _mc_expectations(spec: DiffusionSpec, psi: Callable, x_s, dts, z: np.ndarray) -> tuple:
    """(rows of E[psi(x_s[i], X_{s+dts[i]}, theta) | X_s = x_s[i]], dropped count)
    for every pair i: J Euler paths of EULER_SUBSTEPS steps per pair, driven
    by z[i] of shape (J, EULER_SUBSTEPS), advance in one kernel call.
    Replicates whose psi is non-finite are dropped; a pair that loses all J
    raises EstimationFailedError."""
    n_pairs, n_reps = z.shape[:2]
    sub_dts = np.broadcast_to((dts / EULER_SUBSTEPS)[:, None], (EULER_SUBSTEPS, n_pairs, 1))
    y = euler_advance(spec, np.broadcast_to(x_s[:, None], (n_pairs, n_reps)), sub_dts,
                      z.transpose(2, 0, 1))
    sim = np.asarray(psi(np.repeat(x_s, n_reps), y.reshape(-1), spec.theta),
                     dtype=float).reshape(n_pairs, n_reps, -1)
    ok = np.all(np.isfinite(sim), axis=2)
    failed = ~ok.any(axis=1)
    if np.any(failed):
        raise EstimationFailedError(
            f"all {n_reps} replicates diverged for observation pair {int(np.argmax(failed))}")
    sim = np.where(ok[:, :, None], sim, 0.0)
    return sim.sum(axis=1) / ok.sum(axis=1)[:, None], int(np.sum(~ok))


def mc_conditional_expectation(spec: DiffusionSpec, ef: EstimatingFunction,
                               s: float, t: float, x: float, seed,
                               return_diagnostics: bool = False):
    """Estimate E[psi(x, X_t, theta) | X_s = x] by J Euler fine paths of
    EULER_SUBSTEPS steps each.

    Replicates whose psi is non-finite are dropped and counted; if every
    replicate diverges an EstimationFailedError is raised.
    """
    if not t > s:
        raise ValueError("t must exceed s")
    z = stream(seed).standard_normal((1, ef.J, EULER_SUBSTEPS))
    est, n_divergent = _mc_expectations(spec, ef.psi, np.array([float(x)]), np.array([t - s]), z)
    return (est[0], {"divergent": n_divergent}) if return_diagnostics else est[0]


def ee_solve(spec: DiffusionSpec, ef: EstimatingFunction, obs: ObservationSet,
             init_theta, seed, expectation_fn: Callable | None = None,
             tol: float = 1e-6) -> FitResult:
    """Solve the martingale estimating equation sum_i psi~(x_i, x_{i+1}, theta) = 0,
    where psi~ centers psi by its (estimated) conditional expectation.

    The Monte Carlo draws of pair i are keyed (seed, "ee", i) and frozen across
    theta evaluations (common random numbers), so the residual is a smooth
    deterministic function of theta and the whole solve is reproducible.
    ``expectation_fn(x, dts, theta) -> (n, k)`` substitutes an exact
    conditional expectation for the Monte Carlo one (the J = infinity
    baseline).  Root-finding is damped Newton on the residual with a
    finite-difference Jacobian, at most NEWTON_MAX_ITER steps.
    """
    if len(obs) < 2:
        raise ValueError("need at least two observations")
    values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
    x_s, x_t = values[:-1], values[1:]
    dts = np.diff(obs.times)
    n_pairs = len(dts)
    theta0 = np.atleast_1d(np.asarray(init_theta, dtype=float))
    k = len(theta0)

    if expectation_fn is None:
        z = replicate_normals(seed, n_pairs, (ef.J, EULER_SUBSTEPS), "ee")
    divergent = 0

    def residual(theta):
        nonlocal divergent
        spec_th = spec.with_theta(theta)
        psi_data = np.asarray(ef.psi(x_s, x_t, theta), dtype=float).reshape(n_pairs, k)
        if expectation_fn is not None:
            cond = np.asarray(expectation_fn(x_s, dts, theta), dtype=float).reshape(n_pairs, k)
        else:
            cond, divergent = _mc_expectations(spec_th, ef.psi, x_s, dts, z)
        return (psi_data - cond).sum(axis=0)

    theta = theta0.copy()
    r = residual(theta)
    nrm = float(np.linalg.norm(r))
    nit = 0
    converged = nrm <= tol
    while not converged and nit < NEWTON_MAX_ITER:
        nit += 1
        jac = np.empty((k, k))
        for j in range(k):
            h = 1e-6 * max(1.0, abs(theta[j]))
            tp = theta.copy()
            tp[j] += h
            jac[:, j] = (residual(tp) - r) / h
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step = -r
        # damp until the residual norm actually decreases
        t_damp = 1.0
        improved = False
        while t_damp >= 1.0 / 1024.0:
            cand = theta + t_damp * step
            r_cand = residual(cand)
            n_cand = float(np.linalg.norm(r_cand))
            if np.isfinite(n_cand) and n_cand < nrm:
                theta, r, nrm = cand, r_cand, n_cand
                improved = True
                break
            t_damp *= 0.5
        if not improved:
            break
        converged = nrm <= tol

    return FitResult(
        theta_hat=theta,
        objective_value=nrm,
        iterations=nit,
        converged=converged,
        seed=seed if isinstance(seed, int) else 0,
        standard_errors=None,
        diagnostics={"divergent_replicates": divergent, "residual_norm": nrm,
                     "J": ef.J if expectation_fn is None else None,
                     "seed_key": seed_key(seed)},
    )
