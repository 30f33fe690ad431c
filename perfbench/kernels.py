"""Kernel pass: each layer's public function timed alone at the sizes of the
per-layer baseline table in ROADMAP.md (the Lamperti row is left out).

Every value is the median over a few repetitions; fast kernels are timed
in batches of calls and reported per call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from driftlab import (
    BasisConfig,
    BridgeDensity,
    EstimatingFunction,
    FokkerPlanckDensity,
    GbmDensity,
    GbmParams,
    NoisyObservationSet,
    ObservationModel,
    ObservationSet,
    OuParams,
    PenaltySpec,
    TimeGrid,
    bridge_loglikelihood,
    collocation_fit,
    discrete_loglikelihood,
    ee_solve,
    fokker_planck_transition_density,
    gbm_beta_spec,
    gbm_spec,
    kalman_loglik,
    mle_fit,
    ou_spec,
    ou_to_ssm,
    particle_filter,
    raw_moment_psi,
    simulate_gbm_exact,
    simulate_ou,
    stream,
)
from driftlab.adequacy import simulate_states_at
from driftlab.collocation import CollocationProblem


def _median_s(fn, reps: int, inner: int = 1) -> float:
    """Median over ``reps`` batches of the mean time of one call, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def kernel_pass(seed: int, tiny: bool = False) -> dict:
    """Kernel name -> median time in the unit its name ends with."""
    def reps(n):
        return 1 if tiny else n

    rng = stream(seed, "perfbench", "kernels")
    gbm = GbmParams(beta=0.1, sigma=0.2)
    obs500 = ObservationSet(times=0.1 * np.arange(501),
                            values=simulate_states_at(gbm, 0.1 * np.arange(501), rng)[:, 0])
    t_irr = np.concatenate([[0.0], np.cumsum(rng.exponential(0.1, 500))])
    obs500_irr = ObservationSet(times=t_irr, values=simulate_states_at(gbm, t_irr, rng)[:, 0])
    n_bridge = 5 if tiny else 50
    bridge_obs = ObservationSet(
        times=0.5 * np.arange(n_bridge + 1),
        values=simulate_states_at(gbm, 0.5 * np.arange(n_bridge + 1), rng)[:, 0])
    td = GbmDensity(gbm)
    out = {}

    out["rng.stream.us"] = 1e6 * _median_s(lambda: stream(seed, "kernel", 7), reps(5), 200)
    out["likelihood.gbm_loglik_500.ms"] = 1e3 * _median_s(
        lambda: discrete_loglikelihood(td, obs500), reps(7), 20)
    out["likelihood.gbm_loglik_500_irregular.ms"] = 1e3 * _median_s(
        lambda: discrete_loglikelihood(td, obs500_irr), reps(7), 2)
    out["likelihood.mle_gbm_500.ms"] = 1e3 * _median_s(
        lambda: mle_fit(td, obs500, td.theta), reps(5))

    bd = BridgeDensity(gbm_spec(gbm), m_sub=8, j_samples=200, seed=seed)
    out["bridge.loglik_50.ms"] = 1e3 * _median_s(
        lambda: bridge_loglikelihood(gbm_spec(gbm), bridge_obs, 8, 200, seed), reps(5))
    out["bridge.mle_50.s"] = _median_s(
        lambda: mle_fit(bd, bridge_obs, bd.theta, compute_stderr=False), 1)

    grid400 = np.linspace(0.2, 3.0, 401)
    out["fokker_planck.solve_400x200.ms"] = 1e3 * _median_s(
        lambda: fokker_planck_transition_density(gbm_spec(gbm), 0.5, 1.0, grid400,
                                                 n_time_steps=200), reps(7))
    fd = FokkerPlanckDensity(gbm_spec(gbm), 0.5 * bridge_obs.values.min(),
                             2.0 * bridge_obs.values.max(), 400, 200)
    out["fokker_planck.loglik_50.ms"] = 1e3 * _median_s(
        lambda: discrete_loglikelihood(fd, bridge_obs), reps(3))

    ou = OuParams(gamma=1.0, beta_bar=0.0, sigma=0.5)
    grid = TimeGrid(0.0, 9.9, 99)
    latent = simulate_ou(ou, grid, (seed, "perfbench", "kernels", "ou")).scalar_values()
    om = ObservationModel(kind="gaussian", scale=0.3)
    noisy = NoisyObservationSet(times=grid.times(), y_values=latent + 0.3 * rng.standard_normal(100))
    out["particle.filter_2000x100.ms"] = 1e3 * _median_s(
        lambda: particle_filter(ou_spec(ou), om, noisy, 2000, substeps=5, seed=seed), reps(5))
    # the oracle as criterion 2 uses it: model construction (with its PSD checks) + filter
    out["kalman.loglik_100.ms"] = 1e3 * _median_s(
        lambda: kalman_loglik(ou_to_ssm(ou, om, noisy.times), noisy), reps(7), 3)

    ee_obs = ObservationSet(times=0.1 * np.arange(201),
                            values=simulate_states_at(GbmParams(0.1, 0.1), 0.1 * np.arange(201),
                                                      rng)[:, 0])
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=4)
    out["estimating.ee_solve_200_j4.ms"] = 1e3 * _median_s(
        lambda: ee_solve(gbm_beta_spec(0.1, 0.1), ef, ee_obs, np.array([0.1]), seed=seed),
        reps(5))

    # criterion 6's problem: noiseless growth at beta 0.3, 50 observations, lambda 1e4
    path = simulate_gbm_exact(GbmParams(beta=0.3, sigma=0.0), TimeGrid(0.0, 2.0, 49), seed=seed)
    c_obs = NoisyObservationSet(times=path.times, y_values=path.scalar_values())
    c_om = ObservationModel(kind="gaussian", scale=1e-6)
    c_spec = gbm_beta_spec(0.5, 1.0)
    basis = BasisConfig.from_times(c_obs.times)
    pen = PenaltySpec(lam=1e4)
    out["collocation.fit_50.ms"] = 1e3 * _median_s(
        lambda: collocation_fit(c_obs, c_om, c_spec, basis, pen), reps(3))
    prob = CollocationProblem(basis, c_obs, c_om, c_spec, pen)
    c = np.linalg.lstsq(prob.B_obs, prob.y, rcond=None)[0]
    out["collocation.objective.us"] = 1e6 * _median_s(
        lambda: prob.objective(c, c_spec.theta), reps(5), 100)
    out["collocation.gradient.ms"] = 1e3 * _median_s(
        lambda: prob.working_gradient_c(c, c_spec.theta), reps(5))
    out["collocation.design.ms"] = 1e3 * _median_s(
        lambda: basis.design(prob.q_nodes), reps(5))
    return out
