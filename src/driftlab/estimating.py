"""Monte Carlo estimating functions for discretely observed diffusions.

When the conditional expectation E[psi(X_s, X_t, theta) | X_s = x] has no
closed form it is estimated by J forward simulations from x.  Centering psi
by that estimate gives a martingale estimating function whose root estimates
theta; using J replicates instead of the exact expectation inflates the
estimator's asymptotic variance by the factor (1 + 1/J), so small J is fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EstimationFailedError, InvalidStartError, _fp_policy
from .ioutil import seed_key
from .likelihood import descend
from .models import DiffusionSpec
from .observe import ObservationSet
from .results import FitResult
from .rng import replicate_normals
from .simulate import euler_advance

EULER_SUBSTEPS = 20  # Euler substeps per observation gap in the Monte Carlo expectation


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


def _mc_expectations(spec: DiffusionSpec, psi: Callable, x0, sub_dts, z: np.ndarray) -> tuple:
    """(rows of E[psi(x_s[i], X_{s+dts[i]}, theta) | X_s = x_s[i]], dropped count)
    for every pair i: J Euler paths of EULER_SUBSTEPS steps per pair advance in one
    kernel call.  Row i of ``x0`` and ``sub_dts``, (n_pairs, J), holds x_s[i] and
    dts[i] / EULER_SUBSTEPS J times; ``z`` is (EULER_SUBSTEPS, n_pairs, J), step axis
    first.  All three are contiguous, and every step shares the row ``sub_dts[None]``.
    Replicates whose psi is non-finite are dropped; a pair that loses all J
    raises EstimationFailedError."""
    y = euler_advance(spec, x0, sub_dts[None], z)
    sim = np.asarray(psi(x0.reshape(-1), y.reshape(-1), spec.theta),
                     dtype=float).reshape(x0.shape + (-1,))
    ok = np.all(np.isfinite(sim), axis=2)
    failed = ~ok.any(axis=1)
    if np.any(failed):
        raise EstimationFailedError(
            f"all {x0.shape[1]} replicates diverged for observation pair {int(np.argmax(failed))}")
    sim = np.where(ok[:, :, None], sim, 0.0)
    return sim.sum(axis=1) / ok.sum(axis=1)[:, None], int(np.sum(~ok))


@_fp_policy()
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
    baseline).  The root is found by ``likelihood.descend`` on the residual norm
    ||r||, a non-finite norm counting as +inf: Newton's -J^-1 r with a forward-difference
    Jacobian at 1e-6 * max(|theta|, 1), and a zero step once ||r|| <= tol, which
    converges.  A singular Jacobian, or a probe that raises a DriftlabError, stalls the
    solve (converged False); a non-finite norm at the start raises InvalidStartError.
    ``iterations`` counts the Jacobians formed, and ``divergent_replicates`` the
    replicates dropped at theta_hat.
    """
    dts, x_s, x_t = obs.pairs()
    n_pairs = len(dts)
    theta0 = np.array(init_theta, dtype=float, ndmin=1)
    k = len(theta0)

    if expectation_fn is None:
        z = replicate_normals(seed, n_pairs, (ef.J, EULER_SUBSTEPS), "ee")
        z = np.ascontiguousarray(z.transpose(2, 0, 1))  # step axis first, for _mc_expectations
        x0, sub_dts = (np.repeat(v, ef.J).reshape(-1, ef.J) for v in (x_s, dts / EULER_SUBSTEPS))
    seen = {}  # theta bytes -> (residual, dropped replicates): descend re-evaluates its point

    def residual(theta):
        key = theta.tobytes()
        if key not in seen:
            psi_data = np.asarray(ef.psi(x_s, x_t, theta), dtype=float).reshape(n_pairs, k)
            if expectation_fn is not None:
                cond = np.asarray(expectation_fn(x_s, dts, theta), dtype=float).reshape(n_pairs, k)
                dropped = 0
            else:
                cond, dropped = _mc_expectations(spec.with_theta(theta), ef.psi, x0, sub_dts, z)
            seen[key] = (psi_data - cond).sum(axis=0), dropped
        return seen[key][0]

    def norm(theta):
        nrm = float(np.linalg.norm(residual(theta)))
        return nrm if math.isfinite(nrm) else np.inf

    jacobians = 0

    def newton_step(theta):
        nonlocal jacobians
        r = residual(theta)
        if norm(theta) <= tol:
            return np.zeros(k)
        jacobians += 1
        jac = np.empty((k, k))
        for j in range(k):
            h = 1e-6 * max(1.0, abs(theta[j]))
            tp = theta.copy()
            tp[j] += h
            jac[:, j] = (residual(tp) - r) / h
        return np.linalg.solve(jac, -r)

    if norm(theta0) == np.inf:
        raise InvalidStartError(f"estimating-equation residual non-finite at init_theta={theta0}")
    theta, nrm, _, converged = descend(norm, newton_step, theta0)
    return FitResult(
        theta_hat=theta,
        objective_value=nrm,
        iterations=jacobians,
        converged=converged,
        seed=seed,
        standard_errors=None,
        diagnostics={"divergent_replicates": seen[theta.tobytes()][1], "residual_norm": nrm,
                     "J": ef.J if expectation_fn is None else None,
                     "seed_key": seed_key(seed)},
    )
