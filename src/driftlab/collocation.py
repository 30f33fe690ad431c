"""Penalized collocation: joint spline-trajectory and parameter estimation.

The trajectory is a cubic B-spline expansion x_t = sum_i c_i B_i(t) and the
fit minimizes

    -sum_i log f(y_i | x_{t_i})  +  lambda * int ||dx/dt - mu(x_t, theta)||^2 dt

over (c, theta).  With ``sigma_weighted`` the integrand residual is divided
elementwise by the model diffusion.  The penalized fit coincides with MAP
estimation in an SDE whose constant diffusion coefficient is 1/sqrt(2*lambda),
so ``map_equivalent_sigma`` converts between the two parameterizations.

Under Gaussian noise the fit is damped Gauss-Newton steps over (c, theta), in
closed form in c (Ramsay, Hooker, Campbell & Cao 2007).  A B-spline row has at most
4 non-zero entries (de Boor 1978), so each step is a banded Cholesky solve of the
c-block and a Schur complement for theta.  Otherwise, or if the steps stall,
one L-BFGS-B pass over (c, theta) runs on the same gradient (Byrd, Lu, Nocedal &
Zhu 1995).  Only the drift's, diffusion's and link's state slopes and dr/dtheta
are differenced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg.lapack import dpbsv
from scipy.optimize import minimize

from .errors import DataFormatError, InvalidStartError, WeightSingularityError, _fp_policy
from .likelihood import descend
from .models import DiffusionSpec
from .observe import NoisyObservationSet, ObservationModel
from .paths import Path, series_arrays
from .results import FitResult

CUBIC_ORDER = 4  # polynomial degree 3
QUAD_SUBDIVISIONS = 10  # Simpson subintervals per inter-knot interval
JOINT_GTOL = 1e-8  # L-BFGS-B tolerances of the joint pass over (c, theta)
JOINT_FTOL = 1e-13
MAX_OUTER = 1000  # default ``max_outer``: the iteration cap of each pass
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
        # each row's window of the 4 basis functions not zero on its knot span, their values,
        # and where the window's 10 products land in the c-block's upper band storage (4, k)
        k, (i, j) = basis.n_basis, np.triu_indices(CUBIC_ORDER)
        obs_win, self._q_win = (np.arange(CUBIC_ORDER) + np.clip(np.searchsorted(
            basis.augmented_knots(), t, side="right") - CUBIC_ORDER, 0, k - CUBIC_ORDER)[:, None]
            for t in (obs.times, self.q_nodes))
        self._local = [np.take_along_axis(m, win, axis=1) for m, win in
                       ((self.B_obs, obs_win), (self.Bq, self._q_win), (self.dBq, self._q_win))]
        self._pairs = np.array([i, j])
        self._band_at = ((3 + i - j) * k + np.vstack([obs_win, self._q_win])[:, j]).ravel()

    def _weight_sigma(self, x_q: np.ndarray, theta: np.ndarray) -> np.ndarray:
        sig = np.asarray(self.spec.diffusion(x_q, theta), dtype=float)
        if np.any(sig == 0):
            raise WeightSingularityError(
                "sigma(x, theta) = 0 at a quadrature node; cannot weight")
        return sig

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
        """The data term and the penalty at (c, theta)."""
        c = np.asarray(c, dtype=float)
        data = -float(np.sum(self.om.loglik_series(self.y, (self.B_obs @ c)[:, None])))
        return data, self._penalty(self.Bq @ c, self.dBq @ c, theta)

    def objective(self, c, theta) -> float:
        data, penalty = self.terms(c, theta)
        return data + penalty

    def working_gradient_c(self, c, theta) -> np.ndarray:
        """Analytic gradient of the objective in c: the c-part of ``gauss_newton_system``'s."""
        return self._linearize(c, theta)[0]

    def _linearize(self, c, theta) -> tuple:
        """The gradient in c, dm/dx, and at the nodes r, mu' + r sigma', sigma, x and dx/dt.

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
        x_q, dx_q = self.Bq @ c, self.dBq @ c
        resid = self._residual(x_q, dx_q, theta)
        slope = _state_slope(lambda x: self.spec.drift(x, theta), x_q)
        sig = np.ones_like(resid)
        if self.pen.weight_mode == "sigma_weighted":
            sig = self._weight_sigma(x_q, theta)
            slope = slope + resid * _state_slope(lambda x: self.spec.diffusion(x, theta), x_q)
        wr = self.q_weights * resid / sig
        grad = grad + 2.0 * self.pen.lam * (self.dBq.T @ wr - self.Bq.T @ (wr * slope))
        return grad, dm, resid, slope, sig, x_q, dx_q

    def gradient(self, v) -> tuple:
        """``gauss_newton_system``'s g at v = (c, theta), then what that builds H from: J's theta
        columns bordered by r (g_theta a gemv, as in a dense J), root w, dm/dx, slope, sigma."""
        k = self.basis.n_basis
        c, theta = v[:k], v[k:]
        grad_c, dm, resid, slope, sig, x_q, dx_q = self._linearize(c, theta)
        jac_theta = [(self._residual(x_q, dx_q, theta + e) - self._residual(x_q, dx_q, theta - e))
                     / (2.0 * e.sum()) for e in np.diag(1e-6 * np.maximum(np.abs(theta), 1.0))]
        root_w = np.sqrt(2.0 * self.pen.lam * self.q_weights)
        bordered = root_w[:, None] * np.column_stack(jac_theta + [resid])
        grad = np.concatenate([grad_c, bordered[:, :-1].T @ bordered[:, -1]])
        return grad, bordered[:, :-1], root_w, dm, slope, sig

    def gauss_newton_system(self, v) -> tuple:
        """Gradient g, for any observation noise, and Gauss-Newton matrix H = B_obs^T
        diag(sum (dm/dx)^2 / scale^2) B_obs + 2 lam J^T W J, Gaussian noise, at v = (c, theta); J =
        [(dBq - diag(mu' + r sigma') Bq) / sigma, dr/dtheta], the latter central
        differences at 1e-6 max(|theta|, 1).  H is the Hessian if r is linear in v.  Returns
        g, the banded c-block in LAPACK's upper band storage (4, k), summed from each row's
        window of 4 in one bincount, the (k, p) c-theta block and the (p, p) theta block."""
        k, p = self.basis.n_basis, len(v) - self.basis.n_basis
        grad, scaled_theta, root_w, dm, slope, sig = self.gradient(v)
        b_obs, bq, dbq = self._local
        scaled_c = root_w[:, None] * ((dbq - slope[:, None] * bq) / sig[:, None])
        rows = np.vstack([np.sqrt((dm**2).sum(axis=1))[:, None] / self.om.scale * b_obs, scaled_c])
        band = np.bincount(self._band_at, rows[:, self._pairs].prod(axis=1).ravel(), 4 * k)
        cross = np.bincount((self._q_win[:, :, None] * p + np.arange(p)).ravel(),
                            (scaled_c[:, :, None] * scaled_theta[:, None, :]).ravel(), k * p)
        return grad, band.reshape(4, k), cross.reshape(k, p), scaled_theta.T @ scaled_theta

    def gauss_newton_step(self, v) -> np.ndarray:
        """-H^-1 g at v: a banded Cholesky solve (dpbsv) of the c-block against [g_c | H_c theta],
        the p x p Schur complement for theta, back-substitution for c.  ``descend`` stalls on a
        c-block that is not positive definite, a zero sigma or a non-finite step."""
        grad, band, cross, hess_theta = self.gauss_newton_system(v)
        _, solved, info = dpbsv(band, np.column_stack([grad[:len(cross)], cross]))
        if info > 0:
            raise np.linalg.LinAlgError("the Gauss-Newton c-block is not positive definite")
        step_theta = -np.linalg.solve(hess_theta - cross.T @ solved[:, 1:],
                                      grad[len(cross):] - cross.T @ solved[:, 0])
        return np.concatenate([-solved[:, 0] - solved[:, 1:] @ step_theta, step_theta])


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
                    max_outer: int = MAX_OUTER) -> tuple:
    """Minimize the penalized objective jointly over (c, theta).

    Under Gaussian noise: ``descend`` by ``gauss_newton_step``s, at most
    min(max_outer, 100), a non-finite objective or a zero sigma counting as
    +inf.  Otherwise, or if that pass stalls, from the same start: one L-BFGS-B
    pass over (c, theta) on ``gradient``'s g (NaN at a zero
    sigma), at most ``max_outer`` iterations, ``converged=False`` if it stops
    short of JOINT_GTOL or JOINT_FTOL.  Returns (FitResult, fitted Path); the Path
    carries the fitted trajectory and its time derivative as two columns, and the
    diagnostics record the ``optimizer`` ("gauss-newton" or "l-bfgs-b"), the data
    and penalty terms, and the pass's iterations (``inner_iterations``, equal to
    ``iterations``) and gradients (``gradient_evaluations``: the step count after
    Gauss-Newton, L-BFGS-B's njev after it).

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

    f0 = prob.objective(c, theta)
    if not np.isfinite(f0):
        raise InvalidStartError(f"collocation objective is {f0} at the start (theta={theta})")
    k, z0 = len(c), np.concatenate([c, theta])

    def joint(v):
        if v.tobytes() == z0.tobytes():  # each pass's f(z0): the start, evaluated once above
            return f0
        try:
            val = prob.objective(v[:k], v[k:])
        except WeightSingularityError:
            return np.inf
        return val if np.isfinite(val) else np.inf

    def gradient(v):
        try:
            return prob.gradient(v)[0]
        except WeightSingularityError:
            return np.full_like(v, np.nan)

    converged, optimizer = False, "gauss-newton"
    if om.kind == "gaussian":
        v, current, nit, converged = descend(joint, prob.gauss_newton_step, z0,
                                             max_steps=min(max_outer, 100))
        njev = nit
    if not converged:
        res = minimize(joint, z0, method="L-BFGS-B", jac=gradient, options={
            "gtol": JOINT_GTOL, "ftol": JOINT_FTOL, "maxiter": max_outer})
        v, current, nit, njev, converged, optimizer = (
            res.x, res.fun, res.nit, res.njev, res.success, "l-bfgs-b")
    c, theta = v[:k], v[k:]

    data_term, penalty_term = prob.terms(c, theta)
    t_rep = np.linspace(basis.knots[0], basis.knots[-1], REPORT_POINTS)
    x_rep = basis.design(t_rep) @ c
    dx_rep = basis.design(t_rep, derivative=1) @ c
    fitted = Path(times=t_rep, values=np.column_stack([x_rep, dx_rep]))
    fit = FitResult(
        theta_hat=theta,
        objective_value=current,
        iterations=nit,
        converged=converged,
        seed=0,
        standard_errors=None,
        diagnostics={
            "data_term": data_term,
            "penalty_term": penalty_term,
            "lambda": pen.lam,
            "weight_mode": pen.weight_mode,
            "optimizer": optimizer,
            "inner_iterations": nit,
            "gradient_evaluations": njev,
            "coeffs": [float(v) for v in c],
        },
    )
    return fit, fitted


def map_equivalent_sigma(lam: float) -> float:
    """Constant diffusion coefficient whose MAP problem matches penalty weight lam."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return 1.0 / np.sqrt(2.0 * lam)
