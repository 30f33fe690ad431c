"""The benchmark's workloads: seeded inputs, ops and output checks.

An op is one fit or one replicate trial.  Each workload repeats a fixed
cycle of op types; each op type draws its inputs from a pool generated at
set-up from the workload seed with driftlab's own simulators, taken in
order and reused once the pool is exhausted.  ``run`` makes only driftlab
calls; ``summarize`` and ``check`` run after the op's clock has stopped.

Why each workload exists (the one-line forms are in BENCHMARK.json):

- fit_exact: closed-form density, Nelder-Mead simplex, collocation and CLI
  fits with nothing random drawn.  Target for those layers; no-change
  workload for rng, simulate, parallel, bridge, fokker_planck and particle.
  The regular 500-pair grid keeps the float noise of ``0.1 * arange(501)``
  (10 distinct dt values); the irregular record has about 100 distinct dt
  values, which ``pair_logdensities`` evaluates one call each.
- fit_simulated: MLEs whose every likelihood evaluation simulates (bridge)
  or solves a PDE (Fokker-Planck), plus the Monte Carlo estimating-equation
  fit.  Half of the bridge and Fokker-Planck records have irregular times,
  so work shared per dt does not look better than on real designs.
- replicate_study: the acceptance suite's replicate loops at reduced
  counts, where stream construction, per-path simulation, the thread pool
  and the particle filter do the work.  No-change workload for closed-form
  density and collocation changes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from driftlab import (
    BasisConfig,
    BridgeDensity,
    EstimatingFunction,
    EulerDensity,
    FokkerPlanckDensity,
    GbmDensity,
    GbmParams,
    NoisyObservationSet,
    ObservationModel,
    ObservationSet,
    OuParams,
    PenaltySpec,
    TimeGrid,
    collocation_fit,
    ee_solve,
    envelope_check,
    fokker_planck_transition_density,
    gaussian_position_model,
    gbm_beta_spec,
    gbm_spec,
    kalman_loglik,
    mle_fit,
    ou_spec,
    ou_to_ssm,
    particle_filter,
    preset_integrated_rw_t,
    raw_moment_psi,
    replicate_normals,
    simulate_gbm_exact,
    simulate_ou,
    stream,
    synthetic_replicates,
    write_observations_csv,
)
from driftlab.adequacy import simulate_states_at
from driftlab.cli import cli_run
from driftlab.parallel import map_replicates, thread_limit
from driftlab.simulate import euler_endpoints

GBM = GbmParams(beta=0.1, sigma=0.2)
OU = OuParams(gamma=1.0, beta_bar=0.2, sigma=0.5)

# tolerances of the output checks
MLE_GAP = 1e-4            # simplex MLE vs the analytic GBM MLE
BETA_ONLY_GAP = 1e-6      # beta-only simplex MLE vs the analytic estimator (c07)
COLLOCATION_REL = 0.01    # collocation relative error of beta (c06)
BRIDGE_BETA_GAP = 0.02    # bridge MLE vs closed-form MLE on the same record
BRIDGE_SIGMA_REL = 0.1    # plus half the proposal's curvature gap, see bridge_sigma_tol
FP_BETA_GAP = 0.03        # Fokker-Planck beta MLE vs the closed form
EE_GAP = 0.15             # J = 8 estimating equation vs its exact-expectation root
PF_BAND = 3.0 * 0.5       # c02: 3 x the largest accepted particle-filter sd
C05_RMS_LIMIT = 0.05      # Euler vs exact endpoint RMS error at dt = 0.01
C08_MIN_FLAG_RATE = 0.8   # increment_sd flagged (c08 needs 95 of 100 trials)
C09_MIN_WIN_RATE = 0.75   # Student-t beats Gaussian (c09 needs 90 of 100 runs)


@dataclass(frozen=True)
class OpType:
    run: Callable        # (input, tracer) -> raw output
    summarize: Callable  # (input, raw output) -> dict of plain numbers
    check: Callable      # (input, summary) -> failure reason, or None
    tally: Callable | None = None  # (summary, counts) -> None, traced runs only
    # a check over the whole pool: the share of distinct inputs whose summary
    # passes ``pool_ok`` must reach ``pool_min_rate``
    pool_ok: Callable | None = None
    pool_min_rate: float = 0.0


@dataclass
class Workload:
    name: str
    cycle: tuple         # op type names, one cycle
    ops: dict            # op type name -> OpType
    inputs: dict         # op type name -> list of inputs
    min_ops: int = 100   # per run, so that at least 10 op times lie beyond the p90


def _rng(seed: int, *ids):
    return stream(seed, "perfbench", *ids)


def _gbm_obs(times, rng, params=GBM) -> ObservationSet:
    return ObservationSet(times=times, values=simulate_states_at(params, times, rng)[:, 0])


def _irregular_times(rng, n_pairs: int, mean_gap: float) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(rng.exponential(mean_gap, n_pairs))])


def gbm_mle_closed_form(obs: ObservationSet, sigma: float | None = None) -> np.ndarray:
    """Analytic GBM MLE of (beta, sigma), or of beta alone at a known sigma.

    Log-returns r_i ~ Normal((beta - sigma^2/2) dt_i, sigma^2 dt_i), so the
    drift term is sum(r) / sum(dt) for any spacing of the times.
    """
    r = np.diff(np.log(obs.values))
    dt = np.diff(obs.times)
    drift = r.sum() / dt.sum()
    if sigma is not None:
        return np.array([drift + 0.5 * sigma**2])
    s2 = float(np.mean((r - drift * dt) ** 2 / dt))
    return np.array([drift + 0.5 * s2, np.sqrt(s2)])


def _fit_summary(_inp, fit) -> dict:
    return {
        "theta": [float(v) for v in fit.theta_hat],
        "stderr": None if fit.standard_errors is None
        else [float(v) for v in fit.standard_errors],
        "objective": float(fit.objective_value),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
    }


def _fit_problem(summary: dict, need_stderr: bool) -> str | None:
    if not summary["converged"]:
        return "not converged"
    if not np.all(np.isfinite(summary["theta"])):
        return "non-finite estimate"
    if need_stderr and (summary["stderr"] is None or not np.all(np.isfinite(summary["stderr"]))):
        return "standard errors missing"
    return None


def _tally_mle(kind: str, need_stderr: bool):
    def tally(summary, counts):
        counts[f"likelihood.mle_fit.{kind}.iterations"] += summary["iterations"]
        if need_stderr and summary["stderr"] is None:
            counts["likelihood.mle_fit.stderr_missing"] += 1
    return tally


# ---------------------------------------------------------------- fit_exact

def _run_gbm_mle(inp, tr):
    td = GbmDensity(GBM)
    return tr.call("likelihood.mle_fit.closed_form_gbm", mle_fit, td, inp["obs"], td.theta,
                   seed=inp["seed"])


def _check_gbm_mle(inp, summary):
    problem = _fit_problem(summary, need_stderr=True)
    if problem:
        return problem
    gap = np.max(np.abs(np.array(summary["theta"]) - gbm_mle_closed_form(inp["obs"])))
    if gap > MLE_GAP:
        return f"estimate {gap:.3g} from the analytic MLE"
    if inp["beta_only_check"]:
        td = GbmDensity(GBM, free=("beta",))
        fit = mle_fit(td, inp["obs"], td.theta, compute_stderr=False)
        gap = abs(float(fit.theta_hat[0]) - gbm_mle_closed_form(inp["obs"], GBM.sigma)[0])
        if gap > BETA_ONLY_GAP:
            return f"beta-only MLE {gap:.3g} from the analytic estimator"
    return None


def _run_euler_ou(inp, tr):
    td = EulerDensity(ou_spec(OU))
    return tr.call("likelihood.mle_fit.euler", mle_fit, td, inp["obs"], td.theta,
                   seed=inp["seed"])


def _run_collocation(inp, tr):
    return tr.call("collocation.collocation_fit", collocation_fit, inp["obs"], inp["om"],
                   inp["spec"], inp["basis"], inp["pen"])


def _summarize_collocation(_inp, out):
    fit, _path = out
    return {"theta": [float(v) for v in fit.theta_hat], "converged": bool(fit.converged),
            "outer_iterations": int(fit.iterations),
            "objective": float(fit.objective_value)}


def _check_collocation(inp, summary):
    if not summary["converged"]:
        return "not converged"
    rel = abs(summary["theta"][0] - inp["beta_star"]) / inp["beta_star"]
    return None if rel <= COLLOCATION_REL else f"relative error {rel:.3g}"


def _tally_collocation(summary, counts):
    counts["collocation.collocation_fit.outer_iterations"] += summary["outer_iterations"]


def _run_cli(inp, tr):
    return tr.call("cli.cli_run", cli_run, inp["argv"])


def _summarize_cli(inp, code):
    payload = None
    if os.path.exists(inp["out"]):
        with open(inp["out"], encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(inp["out"])  # so a later op on this input must write it afresh
    return {"exit_code": int(code), "result": payload}


def _check_cli(_inp, summary):
    if summary["exit_code"] != 0:
        return f"exit code {summary['exit_code']}"
    res = summary["result"]
    if res is None:
        return "no result file"
    return _fit_problem({"converged": res["converged"], "theta": res["theta_hat"],
                         "stderr": res["stderr"]}, need_stderr=True)


def fit_exact(seed: int, pool: int, workdir: str) -> Workload:
    grid500 = 0.1 * np.arange(501)  # float noise: 10 distinct dt values
    grid200 = 0.1 * np.arange(201)
    inputs = {"gbm_regular": [], "gbm_irregular": [], "euler_ou": [],
              "collocation": [], "cli_ou": []}
    for i in range(pool):
        inputs["gbm_regular"].append({
            "obs": _gbm_obs(grid500, _rng(seed, "fit_exact", "gbm_regular", i)),
            "seed": i, "beta_only_check": True})
        rng = _rng(seed, "fit_exact", "cli_ou", i)
        obs = ObservationSet(times=grid200, values=simulate_states_at(OU, grid200, rng)[:, 0])
        csv = os.path.join(workdir, f"ou_{i}.csv")
        with open(csv, "w", encoding="utf-8") as fh:
            write_observations_csv(obs, fh)
        out = os.path.join(workdir, f"ou_{i}.json")
        inputs["cli_ou"].append({"argv": ["fit", "--method", "mle", "--model", "ou",
                                          "--data", csv, "--out", out], "out": out})
        rng = _rng(seed, "fit_exact", "gbm_irregular", i)
        inputs["gbm_irregular"].append({
            "obs": _gbm_obs(_irregular_times(rng, 100, 0.1), rng),
            "seed": i, "beta_only_check": False})
        rng = _rng(seed, "fit_exact", "euler_ou", i)
        inputs["euler_ou"].append({
            "obs": ObservationSet(times=grid200,
                                  values=simulate_states_at(OU, grid200, rng)[:, 0]),
            "seed": i})
        # noiseless exponential growth, as in criterion 6
        beta_star = 0.2 + 0.2 * float(_rng(seed, "fit_exact", "collocation", i).random())
        path = simulate_gbm_exact(GbmParams(beta=beta_star, sigma=0.0), TimeGrid(0.0, 2.0, 49),
                                  seed=(seed, "perfbench", "collocation", i))
        obs = NoisyObservationSet(times=path.times, y_values=path.scalar_values())
        inputs["collocation"].append({
            "obs": obs, "om": ObservationModel(kind="gaussian", scale=1e-6),
            "spec": gbm_beta_spec(0.5, 1.0), "basis": BasisConfig.from_times(obs.times),
            "pen": PenaltySpec(lam=1e4), "beta_star": beta_star})
    ops = {
        "cli_ou": OpType(_run_cli, _summarize_cli, _check_cli),
        "gbm_regular": OpType(_run_gbm_mle, _fit_summary, _check_gbm_mle,
                              _tally_mle("closed_form_gbm", True)),
        "euler_ou": OpType(_run_euler_ou, _fit_summary,
                           lambda _i, s: _fit_problem(s, need_stderr=True),
                           _tally_mle("euler", True)),
        "collocation": OpType(_run_collocation, _summarize_collocation, _check_collocation,
                              _tally_collocation),
        "gbm_irregular": OpType(_run_gbm_mle, _fit_summary, _check_gbm_mle,
                                _tally_mle("closed_form_gbm", True)),
    }
    # one of each: the median falls inside the Euler fits, the p90 inside the irregular ones
    cycle = ("cli_ou", "gbm_regular", "euler_ou", "collocation", "gbm_irregular")
    return Workload("fit_exact", cycle, ops, inputs)


# ------------------------------------------------------------ fit_simulated

def _run_ee(inp, tr):
    return tr.call("estimating.ee_solve", ee_solve, inp["spec"], inp["ef"], inp["obs"],
                   inp["init"], seed=inp["seed"])


def _summarize_ee(_inp, fit):
    out = _fit_summary(None, fit)
    out["divergent"] = int(fit.diagnostics["divergent_replicates"])
    return out


def _exact_gbm_expectation(x, dts, theta):
    return (x * np.exp(theta[0] * dts))[:, None]


def _check_ee(inp, summary):
    problem = _fit_problem(summary, need_stderr=False)
    if problem:
        return problem
    exact = ee_solve(inp["spec"], inp["ef"], inp["obs"], inp["init"], seed=inp["seed"],
                     expectation_fn=_exact_gbm_expectation)
    gap = abs(summary["theta"][0] - float(exact.theta_hat[0]))
    return None if gap <= EE_GAP else f"{gap:.3g} from the exact-expectation root"


def _tally_ee(summary, counts):
    counts["estimating.ee_solve.iterations"] += summary["iterations"]
    counts["estimating.ee_solve.divergent"] += summary["divergent"]


def _run_bridge(inp, tr):
    td = BridgeDensity(gbm_spec(GBM), m_sub=8, j_samples=200, seed=inp["seed"])
    return tr.call("likelihood.mle_fit.bridge_mc", mle_fit, td, inp["obs"], td.theta,
                   compute_stderr=False)


def bridge_sigma_tol(obs: ObservationSet, beta: float, sigma: float) -> float:
    """How far the bridge's sigma may lie from the closed-form sigma.

    The bridge proposal interpolates linearly between the endpoints of a gap
    of length dt, where GBM's mean grows as exp(beta t); at mid-gap the two
    differ by about x beta^2 dt^2 / 8, against a bridge spread of
    x sigma sqrt(dt) / 2.  In units of sigma that gap is
    beta^2 dt^1.5 / 4.  Where sigma is far above it (the usual record) the
    tolerance is 10% of sigma; on a short record whose sample sigma came
    out tiny the importance weights degenerate and the Euler substeps are
    biased on that scale, so half of it is added.
    """
    dt = float(np.max(np.diff(obs.times)))
    return BRIDGE_SIGMA_REL * sigma + 0.5 * beta**2 * dt**1.5 / 4.0


def _check_bridge(inp, summary):
    problem = _fit_problem(summary, need_stderr=False)
    if problem:
        return problem
    beta, sigma = gbm_mle_closed_form(inp["obs"])
    if abs(summary["theta"][0] - beta) > BRIDGE_BETA_GAP:
        return f"beta {summary['theta'][0]:.4g} vs closed form {beta:.4g}"
    if abs(summary["theta"][1] - sigma) > bridge_sigma_tol(inp["obs"], beta, sigma):
        return f"sigma {summary['theta'][1]:.4g} vs closed form {sigma:.4g}"
    return None


# y_min, y_max, cells, time steps per pair.  On 100 cells x 25 steps the
# discretisation error alone put beta up to 0.084 from the closed form on
# 2-pair records (400 cells x 25 steps: 0.046, from the time steps on long
# gaps); 400 cells x 50 steps keep it well inside FP_BETA_GAP.
FP_GRID = (0.2, 4.0, 400, 50)


def _run_fokker_planck(inp, tr):
    td = FokkerPlanckDensity(gbm_beta_spec(GBM.beta, GBM.sigma), *FP_GRID)
    return tr.call("likelihood.mle_fit.fokker_planck", mle_fit, td, inp["obs"], td.theta,
                   compute_stderr=False)


def _summarize_fokker_planck(inp, fit):
    out = _fit_summary(inp, fit)
    # the density class drops the solver's warning (boundary truncation or mass
    # leakage); re-solve each pair at the estimate and count them
    y_min, y_max, cells, steps = FP_GRID
    spec = gbm_beta_spec(float(fit.theta_hat[0]), GBM.sigma)
    grid = np.linspace(y_min, y_max, cells + 1)
    obs = inp["obs"]
    out["boundary_warnings"] = sum(
        fokker_planck_transition_density(spec, dt, x, grid, n_time_steps=steps)
        .boundary_warning is not None
        for dt, x in zip(np.diff(obs.times), obs.values[:-1]))
    return out


def _check_fokker_planck(inp, summary):
    problem = _fit_problem(summary, need_stderr=False)
    if problem:
        return problem
    beta = gbm_mle_closed_form(inp["obs"], GBM.sigma)[0]
    gap = abs(summary["theta"][0] - beta)
    return None if gap <= FP_BETA_GAP else f"beta {gap:.3g} from the closed form"


def _tally_fokker_planck(summary, counts):
    _tally_mle("fokker_planck", False)(summary, counts)
    counts["fokker_planck.boundary_warnings"] += summary["boundary_warnings"]


def fit_simulated(seed: int, pool: int, workdir: str) -> Workload:
    inputs = {"ee": [], "bridge": [], "fokker_planck": []}
    ee_times = 0.05 * np.arange(201)
    ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=8)
    ee_params = GbmParams(beta=0.1, sigma=0.3)
    for i in range(3 * pool):
        obs = _gbm_obs(ee_times, _rng(seed, "fit_simulated", "ee", i), ee_params)
        # the CLI's moment start for beta
        r = np.diff(np.log(obs.values))
        dts = np.diff(obs.times)
        beta0 = float(np.mean(r / dts) + 0.5 * np.std(r / np.sqrt(dts), ddof=1) ** 2)
        inputs["ee"].append({"obs": obs, "ef": ef, "init": np.array([beta0]),
                             "spec": gbm_beta_spec(beta0, ee_params.sigma),
                             "seed": (seed, "perfbench", "ee", i)})
    for kind, n_pairs in (("bridge", 3), ("fokker_planck", 2)):
        for i in range(pool):
            rng = _rng(seed, "fit_simulated", kind, i)
            if i % 2:
                times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 0.75, n_pairs))])
            else:
                times = 0.5 * np.arange(n_pairs + 1)
            inputs[kind].append({"obs": _gbm_obs(times, rng),
                                 "seed": (seed, "perfbench", kind, i)})
    ops = {
        "ee": OpType(_run_ee, _summarize_ee, _check_ee, _tally_ee),
        "bridge": OpType(_run_bridge, _fit_summary, _check_bridge,
                         _tally_mle("bridge_mc", False)),
        "fokker_planck": OpType(_run_fokker_planck, _summarize_fokker_planck,
                                _check_fokker_planck, _tally_fokker_planck),
    }
    cycle = ("ee", "bridge", "ee", "fokker_planck", "ee")
    return Workload("fit_simulated", cycle, ops, inputs)


# ---------------------------------------------------------- replicate_study

C01_BATCH = 2  # replicates per c01 op, dispatched through map_replicates


def traced_map_replicates(tr, fn, n: int):
    """map_replicates(fn, n), with a span per replicate under the batch span."""
    if not tr.enabled:
        return map_replicates(fn, n)
    workers = min(thread_limit(), max(n, 1))
    with tr.span("parallel.map_replicates") as batch:
        def one(r):
            with tr.span("parallel.replicate", parent=batch):
                return fn(r)
        start = time.perf_counter()
        out = map_replicates(one, n)
        tr.counts["parallel.map_replicates.capacity_s"] += workers * (time.perf_counter() - start)
    return out


def _run_c01(inp, tr):
    spec, efs, times, seed = inp["spec"], inp["efs"], inp["times"], inp["seed"]

    def one(k: int):
        rep = inp["first_rep"] + k
        values = tr.call("adequacy.simulate_states_at", simulate_states_at,
                         GbmParams(0.1, 0.1), times, stream(seed, "c01", "data", rep))
        obs = ObservationSet(times=times, values=values[:, 0])
        fits = [tr.call("estimating.ee_solve", ee_solve, spec, efs[1], obs, spec.theta,
                        seed=(seed, "c01", "mc", rep, 0),
                        expectation_fn=_exact_gbm_expectation)]
        for j, ef in efs.items():
            fits.append(tr.call("estimating.ee_solve", ee_solve, spec, ef, obs, spec.theta,
                                seed=(seed, "c01", "mc", rep, j)))
        return fits

    return traced_map_replicates(tr, one, C01_BATCH)


def _summarize_c01(_inp, reps):
    return {"replicates": [[_summarize_ee(None, f) for f in fits] for fits in reps]}


def _check_c01(_inp, summary):
    for fits in summary["replicates"]:
        for fit in fits:
            problem = _fit_problem(fit, need_stderr=False)
            if problem:
                return problem
    return None


def _tally_c01(summary, counts):
    for fits in summary["replicates"]:
        for fit in fits:
            _tally_ee(fit, counts)


def _run_c08(inp, tr):
    synthetic = tr.call("adequacy.synthetic_replicates", synthetic_replicates,
                        inp["fitted"], inp["times"], 50, inp["seed"])
    return tr.call("adequacy.envelope_check", envelope_check, inp["observed"], synthetic)


def _summarize_c08(_inp, report):
    return {"flagged": report.flagged,
            "statistics": [[s.name, s.observed, s.q_lo, s.q_hi] for s in report.statistics]}


def _tally_c08(summary, counts):
    counts["adequacy.trials"] += 1
    counts["adequacy.flagged"] += "increment_sd" in summary["flagged"]


def _run_c02(inp, tr):
    pf = tr.call("particle.particle_filter.ou", particle_filter, inp["spec"], inp["om"],
                 inp["obs"], 2000, substeps=5, seed=inp["seed"])
    ssm = tr.call("kalman.ou_to_ssm", ou_to_ssm, inp["params"], inp["om"], inp["obs"].times)
    exact = tr.call("kalman.kalman_loglik", kalman_loglik, ssm, inp["obs"])
    return pf, exact


def _filter_summary(res) -> dict:
    return {"loglik": float(res.loglik), "ess_min": float(np.min(res.ess_trace)),
            "resamples": len(res.resample_steps), "steps": len(res.ess_trace),
            "means": [float(v) for v in res.filtered_means.values[:, 0]]}


def _summarize_c02(_inp, out):
    pf, exact = out
    return {"pf": _filter_summary(pf), "kalman": float(exact), "particles": 2000}


def _check_c02(_inp, summary):
    gap = abs(summary["pf"]["loglik"] - summary["kalman"])
    return None if gap <= PF_BAND else f"particle filter {gap:.3g} from Kalman"


def _tally_filters(filters, particles, counts):
    for f in filters:
        counts["particle.runs"] += 1
        counts["particle.ess_min_frac_sum"] += f["ess_min"] / particles
        counts["particle.resamples"] += f["resamples"]
        counts["particle.steps"] += f["steps"]


def _run_c09(inp, tr):
    res_t = tr.call("particle.particle_filter.irw", particle_filter, inp["kernel"],
                    inp["om_t"], inp["obs"], 500, seed=inp["seed"])
    res_g = tr.call("particle.particle_filter.irw", particle_filter, inp["kernel"],
                    inp["om_g"], inp["obs"], 500, seed=inp["seed"])
    return res_t, res_g


def _summarize_c09(inp, out):
    res_t, res_g = out
    k = inp["outlier_at"]
    err_t = abs(res_t.filtered_means.values[k, 0] - inp["positions"][k])
    err_g = abs(res_g.filtered_means.values[k, 0] - inp["positions"][k])
    return {"t": _filter_summary(res_t), "gaussian": _filter_summary(res_g),
            "student_t_wins": bool(err_t < err_g), "particles": 500}


def _run_c05(inp, tr):
    z = tr.call("rng.replicate_normals", replicate_normals, inp["seed"], 500, 100, "c05",
                inp["slice"])
    return z, tr.call("simulate.euler_endpoints", euler_endpoints, inp["spec"], inp["grid"], z)


def _summarize_c05(inp, out):
    z, ends = out
    p, grid = inp["params"], inp["grid"]
    exact = p.x0 * np.exp((p.beta - 0.5 * p.sigma**2) * grid.t_end
                          + p.sigma * np.sqrt(grid.dt) * z.sum(axis=1))
    return {"ends": [float(v) for v in ends[:, 0]],
            "rms_error": float(np.sqrt(np.mean((ends[:, 0] - exact) ** 2)))}


def _check_c05(_inp, summary):
    rms = summary["rms_error"]
    return None if np.isfinite(rms) and rms <= C05_RMS_LIMIT else f"RMS error {rms:.3g}"


def replicate_study(seed: int, pool: int, workdir: str) -> Workload:
    inputs = {"c01": [], "c08": [], "c02": [], "c09": [], "c05": []}
    c01_times = 0.1 * np.arange(201)
    c01_spec = gbm_beta_spec(0.1, 0.1)
    efs = {j: EstimatingFunction(psi=raw_moment_psi((1,)), J=j) for j in (1, 4)}
    c08_times = 0.01 * np.arange(101)
    c02_grid = TimeGrid(0.0, 9.9, 99)
    om_c02 = ObservationModel(kind="gaussian", scale=0.3)
    kernel, om_t = preset_integrated_rw_t(0.1, 0.5, 3.0)
    om_g = gaussian_position_model(0.5)
    c09_times = np.arange(40, dtype=float)
    c05_params = GbmParams(beta=0.1, sigma=0.3)
    for i in range(pool):
        inputs["c01"].append({"spec": c01_spec, "efs": efs, "times": c01_times,
                              "seed": seed, "first_rep": C01_BATCH * i})
        inputs["c08"].append({
            "fitted": GbmParams(0.05, 0.2), "times": c08_times,
            "observed": _gbm_obs(c08_times, stream(seed, "c08", "obs", i),
                                 GbmParams(0.05, 0.4)),
            "seed": (seed, "c08", "syn", i)})
        latent = simulate_ou(OuParams(1.0, 0.0, 0.5), c02_grid, (seed, "c02", "path", i))
        noise = stream(seed, "c02", "noise", i).standard_normal(len(c02_grid.times()))
        obs = NoisyObservationSet(times=c02_grid.times(),
                                  y_values=latent.scalar_values() + 0.3 * noise)
        inputs["c02"].append({"params": OuParams(1.0, 0.0, 0.5),
                              "spec": ou_spec(OuParams(1.0, 0.0, 0.5)), "om": om_c02,
                              "obs": obs, "seed": (seed, "c02", "pf", i)})
        states = simulate_states_at(kernel, c09_times, stream(seed, "c09", "lat", i))
        y = states[:, 0] + 0.5 * stream(seed, "c09", "noise", i).standard_normal(40)
        y[20] += 5.0
        inputs["c09"].append({"kernel": kernel, "om_t": om_t, "om_g": om_g,
                              "obs": NoisyObservationSet(times=c09_times, y_values=y),
                              "positions": states[:, 0], "outlier_at": 20,
                              "seed": (seed, "c09", "pf", i)})
        inputs["c05"].append({"seed": seed, "slice": i, "params": c05_params,
                              "spec": gbm_spec(c05_params), "grid": TimeGrid(0.0, 1.0, 100)})
    ops = {
        "c08": OpType(_run_c08, _summarize_c08, lambda _i, _s: None, _tally_c08,
                      lambda s: "increment_sd" in s["flagged"], C08_MIN_FLAG_RATE),
        "c05": OpType(_run_c05, _summarize_c05, _check_c05),
        "c09": OpType(_run_c09, _summarize_c09, lambda _i, _s: None,
                      lambda s, c: _tally_filters([s["t"], s["gaussian"]], 500, c),
                      lambda s: s["student_t_wins"], C09_MIN_WIN_RATE),
        "c02": OpType(_run_c02, _summarize_c02, _check_c02,
                      lambda s, c: _tally_filters([s["pf"]], 2000, c)),
        "c01": OpType(_run_c01, _summarize_c01, _check_c01, _tally_c01),
    }
    cycle = ("c08", "c05", "c09", "c02", "c01")
    return Workload("replicate_study", cycle, ops, inputs)


WORKLOADS = {  # name -> (factory, pool size of an op type that appears once per cycle)
    "fit_exact": (fit_exact, 20),
    "fit_simulated": (fit_simulated, 24),
    "replicate_study": (replicate_study, 80),
}


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """The named workload's inputs for ``seed``; ``tiny`` shrinks every pool to 1."""
    factory, pool = WORKLOADS[name]
    if tiny:
        wl = factory(seed, 1, workdir)
        wl.min_ops = 0
        return wl
    return factory(seed, pool, workdir)
