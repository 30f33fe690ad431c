"""Acceptance suite: one function per criterion, each returning a pass/fail
result with the numbers behind it.

Everything runs at desk scale from fixed seeds, so results are deterministic
and byte-reproducible; the determinism criterion re-runs the whole core suite
under different DRIFTLAB_THREADS settings and compares serialized bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .adequacy import envelope_check, simulate_states_at, synthetic_replicates
from .collocation import (
    BasisConfig,
    CollocationProblem,
    PenaltySpec,
    collocation_fit,
)
from .densities import gbm_transition_logdensity
from .estimating import EstimatingFunction, ee_solve, raw_moment_psi
from .fokker_planck import fokker_planck_transition_density
from .kalman import kalman_loglik, ou_to_ssm
from .likelihood import BridgeDensity, GbmDensity, mle_fit
from .models import DiffusionSpec, GbmParams, OuParams, gbm_beta_spec, gbm_spec, ou_spec
from .movement import gaussian_position_model, preset_integrated_rw_t
from .observe import NoisyObservationSet, ObservationModel, ObservationSet
from .parallel import map_replicates
from .particle import particle_filter
from .paths import TimeGrid
from .rng import replicate_normals, stream
from .simulate import euler_endpoints, simulate_gbm_exact, simulate_ou

DEFAULT_SEED = 31452


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "details": self.details}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


def format_result(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    parts = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in res.details.items())
    return f"{status} {res.name}: {parts}"


def _gbm_dataset(p: GbmParams, times: np.ndarray, rng) -> ObservationSet:
    return ObservationSet(times=times, values=simulate_states_at(p, times, rng)[:, 0])


def criterion_variance_inflation(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Monte Carlo estimating functions lose efficiency by the factor (1 + 1/J)."""
    beta_star, sigma, dt, n_obs, reps = 0.1, 0.1, 0.1, 200, 500
    times = dt * np.arange(n_obs + 1)
    spec = gbm_beta_spec(beta_star, sigma)
    ef_by_j = {j: EstimatingFunction(psi=raw_moment_psi((1,)), J=j) for j in (1, 4)}

    def closed_form_expectation(x, dts, theta):
        return (x * np.exp(theta[0] * dts))[:, None]

    def one(rep: int):
        obs = _gbm_dataset(GbmParams(beta_star, sigma), times, stream(seed, "c1", "data", rep))
        out = {}
        base = ee_solve(spec, ef_by_j[1], obs, np.array([beta_star]),
                        seed=(seed, "c1", "mc", rep, 0),
                        expectation_fn=closed_form_expectation)
        out["base"] = base.theta_hat[0]
        for j, ef in ef_by_j.items():
            fit = ee_solve(spec, ef, obs, np.array([beta_star]),
                           seed=(seed, "c1", "mc", rep, j))
            out[j] = fit.theta_hat[0]
        return out

    rows = map_replicates(one, reps)
    var_base = float(np.var([r["base"] for r in rows], ddof=1))
    ratio = {j: float(np.var([r[j] for r in rows], ddof=1) / var_base) for j in (1, 4)}
    passed = 1.7 <= ratio[1] <= 2.3 and 1.1 <= ratio[4] <= 1.4
    return CriterionResult(
        name="c01_variance_inflation",
        passed=passed,
        details={"ratio_j1": ratio[1], "ratio_j4": ratio[4],
                 "expected_j1": 2.0, "expected_j4": 1.25,
                 "band_j1": "[1.7, 2.3]", "band_j4": "[1.1, 1.4]",
                 "replications": reps},
    )


def criterion_pf_vs_kalman(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Particle-filter log-likelihood agrees with the exact Kalman value."""
    p = OuParams(gamma=1.0, beta_bar=0.0, sigma=0.5, b0=0.0)
    n_obs, dt, scale, n_particles, n_seeds = 100, 0.1, 0.3, 2000, 20
    grid = TimeGrid(0.0, dt * (n_obs - 1), n_obs - 1)
    latent = simulate_ou(p, grid, (seed, "c2", "path")).scalar_values()
    noise = stream(seed, "c2", "noise").standard_normal(n_obs)
    obs = NoisyObservationSet(times=grid.times(), y_values=latent + scale * noise)
    om = ObservationModel(kind="gaussian", scale=scale)
    exact = kalman_loglik(ou_to_ssm(p, om, obs.times), obs)

    lls = np.array([
        particle_filter(ou_spec(p), om, obs, n_particles, substeps=5,
                        seed=(seed, "c2", "pf", k)).loglik
        for k in range(n_seeds)
    ])
    sd = float(np.std(lls, ddof=1))
    gap = float(abs(np.mean(lls) - exact))
    passed = gap <= 3.0 * sd and sd <= 0.5
    return CriterionResult(
        name="c02_pf_vs_kalman",
        passed=passed,
        details={"kalman_loglik": exact, "pf_mean_loglik": float(np.mean(lls)),
                 "pf_sd": sd, "gap": gap, "gap_limit_3sd": 3.0 * sd,
                 "sd_limit": 0.5, "n_particles": n_particles, "n_seeds": n_seeds},
    )


def criterion_fokker_planck(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Forward-PDE transition density matches the closed form on a fine grid."""
    p = GbmParams(beta=0.1, sigma=0.2, x0=1.0)
    grid = np.linspace(0.2, 3.0, 401)  # 400 cells
    result = fokker_planck_transition_density(gbm_spec(p), dt=0.5, x=1.0,
                                               y_grid=grid, n_time_steps=200)
    exact = np.exp(gbm_transition_logdensity(p, 0.5, 1.0, grid))
    max_err = float(np.max(np.abs(result.density - exact)))
    mass_err = float(abs(result.mass - 1.0))
    passed = max_err <= 1e-3 and mass_err <= 1e-3
    return CriterionResult(
        name="c03_fokker_planck",
        passed=passed,
        details={"max_abs_error": max_err, "error_limit": 1e-3,
                 "mass": result.mass, "mass_error_limit": 1e-3,
                 "cells": 400, "time_steps": 200},
    )


def criterion_bridge_likelihood(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Bridge-sampled per-pair densities track the closed form within 5%."""
    p = GbmParams(beta=0.1, sigma=0.2, x0=1.0)
    dt, n_pairs, m_sub, j_samples = 0.5, 50, 8, 200
    path = simulate_gbm_exact(p, TimeGrid(0.0, dt * n_pairs, n_pairs), (seed, "c4", "path"))
    vals = path.scalar_values()
    td = BridgeDensity(gbm_spec(p), m_sub=m_sub, j_samples=j_samples, seed=(seed, "c4"))
    est = np.exp(td.logdensities(np.full(n_pairs, dt), vals[:-1], vals[1:]))
    exact = np.exp(gbm_transition_logdensity(p, dt, vals[:-1], vals[1:]))
    mean_rel = float(np.mean(np.abs(est - exact) / exact))
    passed = mean_rel <= 0.05
    return CriterionResult(
        name="c04_bridge_likelihood",
        passed=passed,
        details={"mean_relative_error": mean_rel, "limit": 0.05,
                 "pairs": n_pairs, "m_sub": m_sub, "j_samples": j_samples},
    )


def criterion_euler_strong_order(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Paired Euler/exact endpoint RMS error scales like sqrt(dt)."""
    p = GbmParams(beta=0.1, sigma=0.3, x0=1.0)
    spec = gbm_spec(p)
    n_seeds, t_end = 10**4, 1.0
    rms = {}
    for dt in (0.02, 0.01, 0.005):
        n = round(t_end / dt)
        z = replicate_normals(seed, n_seeds, n, "c5", n)
        grid = TimeGrid(0.0, t_end, n)
        euler_end = euler_endpoints(spec, grid, z)[:, 0]
        brownian_end = np.sqrt(dt) * z.sum(axis=1)
        exact_end = p.x0 * np.exp((p.beta - 0.5 * p.sigma**2) * t_end + p.sigma * brownian_end)
        rms[dt] = float(np.sqrt(np.mean((euler_end - exact_end) ** 2)))
    r1 = rms[0.02] / rms[0.01]
    r2 = rms[0.01] / rms[0.005]
    passed = 1.2 <= r1 <= 1.7 and 1.2 <= r2 <= 1.7
    return CriterionResult(
        name="c05_euler_strong_order",
        passed=passed,
        details={"rms_dt_0.02": rms[0.02], "rms_dt_0.01": rms[0.01],
                 "rms_dt_0.005": rms[0.005], "ratio_1": float(r1),
                 "ratio_2": float(r2), "band": "[1.2, 1.7]", "seeds": n_seeds},
    )


def criterion_collocation_recovery(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Penalized collocation recovers the growth rate from noiseless ODE data,
    and the sigma-weighted penalty algebra matches its constant-sigma form."""
    beta_star, lam = 0.3, 1e4
    times = np.linspace(0.0, 2.0, 50)
    y = np.exp(beta_star * times)
    obs = NoisyObservationSet(times=times, y_values=y)
    om = ObservationModel(kind="gaussian", scale=1e-6)
    spec = gbm_beta_spec(0.5, 1.0)
    basis = BasisConfig.from_times(times)
    fit, _ = collocation_fit(obs, om, spec, basis, PenaltySpec(lam=lam))
    rel_err = float(abs(fit.theta_hat[0] - beta_star) / beta_star)

    # penalty algebra: constant sigma = 1/sqrt(2 lam') makes the weighted
    # penalty equal the unweighted one scaled by 2 lam'
    lam_prime = 3.0
    sig_const = 1.0 / np.sqrt(2.0 * lam_prime)
    const_spec = DiffusionSpec(drift=lambda x, th: th[0] * x,
                               diffusion=lambda x, th: sig_const * np.ones_like(x),
                               theta=np.array([beta_star]), x0=np.array([1.0]))
    prob_w = CollocationProblem(basis, obs, om, const_spec,
                                 PenaltySpec(lam=1.0, weight_mode="sigma_weighted"))
    prob_u = CollocationProblem(basis, obs, om, const_spec, PenaltySpec(lam=1.0))
    c_probe = np.linalg.lstsq(prob_u.B_obs, y, rcond=None)[0]
    _, pen_w = prob_w.terms(c_probe, const_spec.theta)
    _, pen_u = prob_u.terms(c_probe, const_spec.theta)
    algebra_err = float(abs(pen_w - 2.0 * lam_prime * pen_u) / abs(pen_w))

    passed = rel_err <= 0.01 and algebra_err <= 1e-12
    return CriterionResult(
        name="c06_collocation_recovery",
        passed=passed,
        details={"beta_hat": float(fit.theta_hat[0]), "beta_star": beta_star,
                 "relative_error": rel_err, "error_limit": 0.01,
                 "penalty_algebra_rel_error": algebra_err,
                 "algebra_limit": 1e-12, "lambda": lam,
                 "converged": bool(fit.converged)},
    )


def criterion_mle_calibration(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Closed-form GBM MLE is calibrated and matches the analytic estimator."""
    beta_star, sigma_star, dt, n_obs, n_sets = 0.1, 0.2, 0.1, 500, 100
    times = dt * np.arange(n_obs + 1)
    p_star = GbmParams(beta_star, sigma_star)

    covered = 0
    for rep in range(n_sets):
        obs = _gbm_dataset(p_star, times, stream(seed, "c7", "data", rep))
        td = GbmDensity(GbmParams(beta=beta_star, sigma=sigma_star))
        fit = mle_fit(td, obs, td.theta, seed=rep)
        if fit.standard_errors is None:
            continue
        truth = np.array([beta_star, sigma_star])
        if np.all(np.abs(fit.theta_hat - truth) <= 3.0 * fit.standard_errors):
            covered += 1

    max_gap = 0.0
    for rep in range(10):
        obs = _gbm_dataset(p_star, times, stream(seed, "c7", "data", rep))
        r = np.diff(np.log(obs.values))
        beta_closed = float(np.mean(r) / dt + 0.5 * sigma_star**2)
        td = GbmDensity(GbmParams(beta=beta_star, sigma=sigma_star), free=("beta",))
        fit = mle_fit(td, obs, np.array([beta_star]), seed=rep, compute_stderr=False)
        max_gap = max(max_gap, abs(float(fit.theta_hat[0]) - beta_closed))

    passed = covered >= 90 and max_gap <= 1e-6
    return CriterionResult(
        name="c07_mle_calibration",
        passed=passed,
        details={"covered_of_100": covered, "coverage_requirement": 90,
                 "max_gap_to_closed_form": max_gap, "gap_limit": 1e-6,
                 "n_obs": n_obs},
    )


def criterion_adequacy_power(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Doubled volatility is caught by the increment-sd envelope statistic.

    Short horizon: over long spans the GBM increment scale is confounded by
    the level the path has wandered to, which washes out the envelope.
    """
    fitted = GbmParams(beta=0.05, sigma=0.2, x0=1.0)
    wrong = GbmParams(beta=0.05, sigma=0.4, x0=1.0)
    times = 0.01 * np.arange(101)
    n_trials, k_reps = 100, 50
    flagged = 0
    for trial in range(n_trials):
        observed = _gbm_dataset(wrong, times, stream(seed, "c8", "obs", trial))
        synthetic = synthetic_replicates(fitted, times, k_reps, (seed, "c8", "syn", trial))
        report = envelope_check(observed, synthetic)
        if "increment_sd" in report.flagged:
            flagged += 1
    passed = flagged >= 95
    return CriterionResult(
        name="c08_adequacy_power",
        passed=passed,
        details={"flagged_of_100": flagged, "requirement": 95,
                 "synthetic_replicates": k_reps},
    )


def criterion_robust_observation(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Student-t observation noise absorbs an injected outlier better than
    a Gaussian model with the same scale."""
    step_sd, t_scale, t_dof = 0.1, 0.5, 3.0
    n_obs, outlier_at, n_runs, n_particles = 40, 20, 100, 500
    times = np.arange(n_obs, dtype=float)
    kernel, om_t = preset_integrated_rw_t(step_sd, t_scale, t_dof)
    om_g = gaussian_position_model(t_scale)

    wins = 0
    for run in range(n_runs):
        states = simulate_states_at(kernel, times, stream(seed, "c9", "lat", run))
        positions = states[:, 0]
        y = positions + t_scale * stream(seed, "c9", "noise", run).standard_normal(n_obs)
        y[outlier_at] += 10.0 * t_scale
        obs = NoisyObservationSet(times=times, y_values=y)
        res_t = particle_filter(kernel, om_t, obs, n_particles, seed=(seed, "c9", "pf", run))
        res_g = particle_filter(kernel, om_g, obs, n_particles, seed=(seed, "c9", "pf", run))
        err_t = abs(res_t.filtered_means.values[outlier_at, 0] - positions[outlier_at])
        err_g = abs(res_g.filtered_means.values[outlier_at, 0] - positions[outlier_at])
        if err_t < err_g:
            wins += 1
    passed = wins >= 90
    return CriterionResult(
        name="c09_robust_observation",
        passed=passed,
        details={"student_t_wins_of_100": wins, "requirement": 90,
                 "outlier_shift": 10.0 * t_scale},
    )


CORE_CRITERIA = [
    criterion_variance_inflation,
    criterion_pf_vs_kalman,
    criterion_fokker_planck,
    criterion_bridge_likelihood,
    criterion_euler_strong_order,
    criterion_collocation_recovery,
    criterion_mle_calibration,
    criterion_adequacy_power,
    criterion_robust_observation,
]


def run_core(seed: int = DEFAULT_SEED) -> list:
    return [fn(seed) for fn in CORE_CRITERIA]


def criterion_determinism(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The whole core suite is byte-identical under different thread caps."""

    def run_with_threads(n: int) -> bytes:
        old = os.environ.get("DRIFTLAB_THREADS")
        os.environ["DRIFTLAB_THREADS"] = str(n)
        try:
            return "".join(r.to_json() for r in run_core(seed)).encode()
        finally:
            if old is None:
                del os.environ["DRIFTLAB_THREADS"]
            else:
                os.environ["DRIFTLAB_THREADS"] = old

    blob1 = run_with_threads(1)
    blob4 = run_with_threads(4)
    passed = blob1 == blob4
    return CriterionResult(
        name="c10_determinism",
        passed=passed,
        details={"bytes_compared": len(blob1), "identical": passed,
                 "thread_counts": "1 vs 4"},
    )


def criteria(selected=None) -> list:
    """The criterion functions, all or the given set of numbers 1-10, in order."""
    return [fn for num, fn in enumerate(CORE_CRITERIA + [criterion_determinism], start=1)
            if selected is None or num in selected]


def run_all(selected=None, seed: int = DEFAULT_SEED) -> list:
    """Run the acceptance criteria (all, or the given set of numbers 1-10)."""
    return [fn(seed) for fn in criteria(selected)]
