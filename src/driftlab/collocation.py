"""Penalized collocation: joint spline-trajectory and parameter estimation.

The trajectory is a cubic B-spline expansion x_t = sum_i c_i B_i(t) and the
fit minimizes

    -sum_i log f(y_i | x_{t_i})  +  lambda * int ||dx/dt - mu(x_t, theta)||^2 dt

over (c, theta).  With ``sigma_weighted`` the integrand residual is divided
elementwise by the model diffusion.  The penalized fit coincides with MAP
estimation in an SDE whose constant diffusion coefficient is 1/sqrt(2*lambda),
so ``map_equivalent_sigma`` converts between the two parameterizations.

Under Gaussian noise the fit is damped Gauss-Newton steps over (c, theta), in
closed form in c (Ramsay, Hooker, Campbell & Cao 2007); otherwise, or if they
stall, Nelder-Mead over theta alternates with L-BFGS-B over c on that gradient.
Only the drift's, diffusion's and link's state slopes and dr/dtheta are differenced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from .errors import DataFormatError, InvalidStartError, WeightSingularityError, _fp_policy
from .likelihood import descend, nelder_mead
from .models import DiffusionSpec
from .observe import NoisyObservationSet, ObservationModel
from .paths import Path, series_arrays
from .results import FitResult

CUBIC_ORDER = 4  # polynomial degree 3
QUAD_SUBDIVISIONS = 10  # Simpson subintervals per inter-knot interval
OUTER_TOL = 1e-9  # outer loop stops once the objective decreases by less
INNER_GTOL = 1e-8  # L-BFGS-B gradient tolerance of the coefficient pass
INNER_MAXITER = 500
THETA_XATOL = 1e-9  # Nelder-Mead tolerances of the theta pass
THETA_FATOL = 1e-10
REPORT_POINTS = 201  # evenly spaced times of the returned fitted trajectory


@dataclass(frozen=True)
class BasisConfig:
    """Cubic B-spline basis with the given strictly increasing knots
    (endpoints included; clamping is internal).  Default: one knot per
    observation time."""

    knots: np.ndarray

    def __post_init__(self):
        knots, _ = series_arrays(self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValueError("knots need at least 2 entries")

    @classmethod
    def from_times(cls, times) -> "BasisConfig":
        return cls(knots=times)

    @property
    def n_basis(self) -> int:
        # interior knots + 4 for cubic order
        return len(self.knots) - 2 + CUBIC_ORDER

    def augmented_knots(self) -> np.ndarray:
        k = self.knots
        return np.concatenate([[k[0]] * 3, k, [k[-1]] * 3])

    def design(self, x, derivative: int = 0) -> np.ndarray:
        """Dense design matrix of basis (or basis-derivative) values at x."""
        # identity coefficients: column i of the spline's value is basis function i
        spl = BSpline(self.augmented_knots(), np.eye(self.n_basis), 3)
        if derivative:
            spl = spl.derivative(derivative)
        return spl(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty weight and weighting mode; the penalty integrates over the
    basis's knot span."""

    lam: float
    weight_mode: str = "unweighted"

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.weight_mode not in ("unweighted", "sigma_weighted"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")


def _quadrature_nodes(basis: BasisConfig, n_sub: int = QUAD_SUBDIVISIONS):
    """Composite-Simpson nodes and weights over the knot span, subdividing
    each inter-knot interval into ``n_sub`` (even) pieces."""
    if n_sub % 2:
        raise ValueError("Simpson subdivisions must be even")
    a, b = basis.knots[:-1], basis.knots[1:]
    h = (b - a) / n_sub
    nodes = a[:, None] + np.arange(n_sub + 1) * h[:, None]  # np.linspace's bits
    nodes[:, -1] = b
    w = np.where(np.arange(n_sub + 1) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    return nodes.ravel(), (w * h[:, None] / 3.0).ravel()


class CollocationProblem:
    """Precomputed design matrices for repeated objective evaluations.

    Every observation column enters the data term: ``y`` is the observation
    set's ``y_values``, shape (n,) or (n, p), and the link must map a state to
    p observation means (one without a link).  A link of another width raises
    DataFormatError.
    """

    def __init__(self, basis: BasisConfig, obs: NoisyObservationSet,
                 om: ObservationModel, spec: DiffusionSpec, pen: PenaltySpec,
                 n_quad: int = QUAD_SUBDIVISIONS):
        if spec.state_dim != 1:
            raise ValueError("collocation handles scalar-state models")
        if obs.times[0] < basis.knots[0] - 1e-12 or obs.times[-1] > basis.knots[-1] + 1e-12:
            raise ValueError("basis must cover the observation window")
        n_cols = obs.y2d().shape[1]
        link_width = np.atleast_2d(om.mean(spec.x0[None, :])).shape[1]
        if link_width != n_cols:
            raise DataFormatError(
                f"the observations have {n_cols} column(s) but the observation link "
                f"gives {link_width} mean(s) per state")
        self.obs = obs
        self.om = om
        self.spec = spec
        self.pen = pen
        self.basis = basis
        self.B_obs = basis.design(obs.times)
        self.q_nodes, self.q_weights = _quadrature_nodes(basis, n_quad)
        self.Bq = basis.design(self.q_nodes)
        self.dBq = basis.design(self.q_nodes, derivative=1)
        self.y = obs.y_values

    def _weight_sigma(self, x_q: np.ndarray, theta: np.ndarray) -> np.ndarray:
        sig = np.asarray(self.spec.diffusion(x_q, theta), dtype=float)
        if np.any(sig == 0):
            raise WeightSingularityError(
                "sigma(x, theta) = 0 at a quadrature node; cannot weight")
        return sig

    def _data_and_nodes(self, c) -> tuple:
        """The theta-free part at c: the data term, x and dx/dt at the nodes."""
        c = np.asarray(c, dtype=float)
        x_obs = self.B_obs @ c
        data = -float(np.sum(self.om.loglik_series(self.y, x_obs[:, None])))
        return data, self.Bq @ c, self.dBq @ c

    def _residual(self, x_q, dx_q, theta) -> np.ndarray:
        """The penalty residual dx/dt - mu at the nodes, over sigma when weighted."""
        resid = dx_q - np.asarray(self.spec.drift(x_q, theta), dtype=float)
        if self.pen.weight_mode == "sigma_weighted":
            resid = resid / self._weight_sigma(x_q, theta)
        return resid

    def _penalty(self, x_q, dx_q, theta) -> float:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return self.pen.lam * float(self.q_weights @ self._residual(x_q, dx_q, theta)**2)

    def terms(self, c: np.ndarray, theta: np.ndarray) -> tuple:
        data, x_q, dx_q = self._data_and_nodes(c)
        return data, self._penalty(x_q, dx_q, theta)

    def objective(self, c, theta) -> float:
        data, penalty = self.terms(c, theta)
        return data + penalty

    def theta_objective(self, c):
        """theta -> objective(c, theta) for fixed c, with the data term and
        the spline values computed once."""
        data, x_q, dx_q = self._data_and_nodes(c)
        return lambda theta: data + self._penalty(x_q, dx_q, theta)

    def working_gradient_c(self, c, theta) -> np.ndarray:
        """Analytic gradient of the objective in c, as the inner optimizer uses it."""
        return self._linearize(c, theta)[0]

    def _linearize(self, c, theta) -> tuple:
        """The gradient in c, dm/dx, and at the nodes r, mu' + r sigma' and sigma.

        Gradient: data term -B_obs^T (score * dm/dx) summed over the observation
        columns, with the closed-form score of the observation density and
        dm/dx = 1 without a link.  Penalty, with r the (weighted) residual at
        the quadrature nodes: 2 lam [dBq^T (w r / sigma) - Bq^T (w r (mu' + r sigma') / sigma)],
        where sigma = 1, sigma' = 0 unweighted.  The link, mu' and sigma' are
        differentiated in the state by one central difference each.
        """
        c = np.asarray(c, dtype=float)
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        x_obs = self.B_obs @ c
        score = self.om.score(self.obs.y2d(), self.om.mean(x_obs[:, None]))
        dm = (np.ones_like(score) if self.om.link is None
              else _state_slope(lambda x: self.om.mean(x[:, None]), x_obs))
        grad = -(self.B_obs.T @ (score * dm).sum(axis=1))
        x_q = self.Bq @ c
        resid = self._residual(x_q, self.dBq @ c, theta)
        slope = _state_slope(lambda x: self.spec.drift(x, theta), x_q)
        sig = np.ones_like(resid)
        if self.pen.weight_mode == "sigma_weighted":
            sig = self._weight_sigma(x_q, theta)
            slope = slope + resid * _state_slope(lambda x: self.spec.diffusion(x, theta), x_q)
        wr = self.q_weights * resid / sig
        grad = grad + 2.0 * self.pen.lam * (self.dBq.T @ wr - self.Bq.T @ (wr * slope))
        return grad, dm, resid, slope, sig

    def gauss_newton_system(self, v) -> tuple:
        """Gradient g and Gauss-Newton matrix H = B_obs^T diag(sum (dm/dx)^2 /
        scale^2) B_obs + 2 lam J^T W J at v = (c, theta), Gaussian noise; J =
        [(dBq - diag(mu' + r sigma') Bq) / sigma, dr/dtheta], the latter central
        differences at 1e-6 max(|theta|, 1).  H is the Hessian if r is linear in v."""
        k = self.basis.n_basis
        c, theta = v[:k], v[k:]
        grad_c, dm, resid, slope, sig = self._linearize(c, theta)
        x_q, dx_q = self.Bq @ c, self.dBq @ c
        jac_theta = [(self._residual(x_q, dx_q, theta + e) - self._residual(x_q, dx_q, theta - e))
                     / (2.0 * e.sum()) for e in np.diag(1e-6 * np.maximum(np.abs(theta), 1.0))]
        jac = np.column_stack([(self.dBq - slope[:, None] * self.Bq) / sig[:, None]] + jac_theta)
        root_w = np.sqrt(2.0 * self.pen.lam * self.q_weights)
        scaled = root_w[:, None] * jac
        hess = scaled.T @ scaled  # one syrk: OpenBLAS's threaded gemm stalled some processes
        hess[:k, :k] += (self.B_obs.T * (dm**2).sum(axis=1) / self.om.scale**2) @ self.B_obs
        return np.concatenate([grad_c, scaled[:, k:].T @ (root_w * resid)]), hess

    def gauss_newton_step(self, v) -> np.ndarray:
        """-H^-1 g at v; ``descend`` stalls on a zero sigma or a non-finite step."""
        grad, hess = self.gauss_newton_system(v)
        return -np.linalg.solve(hess, grad)


def _state_slope(f, x: np.ndarray) -> np.ndarray:
    """d f / dx at each state of the 1-D array x by one central difference
    with step eps^(1/3) max(1, |x|); f maps a 1-D array of states to one
    value (or row of values) per state, or to one scalar for all of them: a
    constant drift written as ``lambda x, th: th[0]`` is valid elsewhere in
    the toolkit too."""
    h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    x_up, x_down = x + h, x - h
    vals = np.asarray(f(np.concatenate([x_up, x_down])), dtype=float)
    vals = np.broadcast_to(vals, (2 * len(x),) + vals.shape[1:])
    step = (x_up - x_down).reshape((len(x),) + (1,) * (vals.ndim - 1))
    return (vals[:len(x)] - vals[len(x):]) / step


@_fp_policy()
def collocation_fit(obs: NoisyObservationSet, om: ObservationModel, spec: DiffusionSpec,
                    basis: BasisConfig, pen: PenaltySpec,
                    max_outer: int = 200) -> tuple:
    """Minimize the penalized objective jointly over (c, theta).

    Under Gaussian noise: ``descend`` by ``gauss_newton_step``s, at most
    min(max_outer, 100), a non-finite objective or a zero sigma counting as
    +inf.  Otherwise, or if that pass stalls, from the same start: an inner
    quasi-Newton pass over the spline coefficients alternating with a simplex
    pass over theta until the objective decrease drops below OUTER_TOL (or
    ``max_outer`` outer iterations pass, reported as ``converged=False``).
    Returns (FitResult, fitted Path); the Path carries the fitted trajectory
    and its time derivative as two columns, and the diagnostics record the
    ``optimizer`` ("gauss-newton" or "alternating"), the data and penalty
    terms, and the L-BFGS-B iterations (``inner_iterations``) and gradients
    (``gradient_evaluations``), both the step count after Gauss-Newton.

    The start is the ridge least-squares smoother of the first observation
    column, ignoring the penalty (identity-link start), with theta at
    ``spec.theta``; a non-finite objective there raises InvalidStartError.
    """
    if max_outer < 1:
        raise ValueError(f"max_outer must be at least 1, got {max_outer}")
    prob = CollocationProblem(basis, obs, om, spec, pen)
    B = prob.B_obs
    gram = B.T @ B
    gram += 1e-9 * np.trace(gram) / len(gram) * np.eye(len(gram))
    c = np.linalg.solve(gram, B.T @ obs.y2d()[:, 0])
    theta = spec.theta.copy()

    current = prob.objective(c, theta)
    if not np.isfinite(current):
        raise InvalidStartError(
            f"collocation objective is {current} at the start (theta={theta})")
    k = len(c)

    def joint(v):
        try:
            val = prob.objective(v[:k], v[k:])
        except WeightSingularityError:
            return np.inf
        return val if np.isfinite(val) else np.inf

    converged, optimizer = False, "alternating"
    outer = inner_iterations = gradient_evaluations = 0
    if om.kind == "gaussian":
        v, f, nit, ok = descend(joint, prob.gauss_newton_step, np.concatenate([c, theta]),
                                max_steps=min(max_outer, 100))
        if ok:
            c, theta, current, converged, optimizer = v[:k], v[k:], f, True, "gauss-newton"
            outer = inner_iterations = gradient_evaluations = nit
    while not converged and outer < max_outer:
        outer += 1
        theta_t, f_t, _, _ = nelder_mead(prob.theta_objective(c), theta, 400,
                                         THETA_XATOL, THETA_FATOL)
        if f_t <= current:
            theta = theta_t
        res_c = minimize(lambda cc: prob.objective(cc, theta), c, method="L-BFGS-B",
                         jac=lambda cc: prob.working_gradient_c(cc, theta),
                         options={"gtol": INNER_GTOL, "ftol": 1e-14,
                                  "maxiter": INNER_MAXITER})
        inner_iterations += res_c.nit
        gradient_evaluations += res_c.njev
        if res_c.fun <= current:
            c = res_c.x
        new = prob.objective(c, theta)
        if current - new < OUTER_TOL:
            converged = True
            current = min(current, new)
            break
        current = new

    data_term, penalty_term = prob.terms(c, theta)
    t_rep = np.linspace(basis.knots[0], basis.knots[-1], REPORT_POINTS)
    x_rep = basis.design(t_rep) @ c
    dx_rep = basis.design(t_rep, derivative=1) @ c
    fitted = Path(times=t_rep, values=np.column_stack([x_rep, dx_rep]))
    fit = FitResult(
        theta_hat=theta,
        objective_value=current,
        iterations=outer,
        converged=converged,
        seed=0,
        standard_errors=None,
        diagnostics={
            "data_term": data_term,
            "penalty_term": penalty_term,
            "lambda": pen.lam,
            "weight_mode": pen.weight_mode,
            "optimizer": optimizer,
            "inner_iterations": inner_iterations,
            "gradient_evaluations": gradient_evaluations,
            "coeffs": [float(v) for v in c],
        },
    )
    return fit, fitted


def map_equivalent_sigma(lam: float) -> float:
    """Constant diffusion coefficient whose MAP problem matches penalty weight lam."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return 1.0 / np.sqrt(2.0 * lam)
