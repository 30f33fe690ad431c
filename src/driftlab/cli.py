"""Command-line interface.

Subcommands: simulate, fit, filter, collocate, diagnose, accept.  Options can
come from a config file (one section per subcommand, see config.py) with
command-line flags taking precedence.  Outputs are written atomically.
Exit codes: 0 success, 2 validation error, 3 non-convergence (result file is
still written).
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
import time

import numpy as np

from . import acceptance
from .adequacy import DEFAULT_K, envelope_check, synthetic_replicates
from .collocation import MAX_OUTER, BasisConfig, PenaltySpec, collocation_fit
from .config import OPTIONS, load_config, typed_options
from .errors import ConfigError, DataFormatError, DriftlabError, InsufficientDataError, _fp_policy
from .estimating import EstimatingFunction, ee_solve, raw_moment_psi
from .likelihood import BridgeDensity, GbmDensity, OuDensity, mle_fit
from .ioutil import atomic_write_text, write_json
from .models import GbmParams, OuParams, TvGrowthParams, gbm_beta_spec, gbm_spec, ou_spec
from .movement import gaussian_position_model, preset_integrated_rw_t
from .observe import (
    ObservationModel,
    read_noisy_csv,
    read_observations_csv,
)
from .particle import particle_filter
from .paths import Path, TimeGrid, write_csv_table, write_path_csv
from .simulate import simulate_gbm_exact, simulate_ou, simulate_tv_growth


@functools.cache  # parsing does not change the parser, so one serves every cli_run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftlab",
                                     description="SDE simulation and inference toolkit")
    sub = parser.add_subparsers(dest="command")
    for command, table in OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="config file with a [%s] section" % command)
        for key, (_typ, help_text) in table.items():
            p.add_argument(f"--{key}", help=help_text, dest=key.replace("-", "_"))
    return parser


def _require(opts: dict, *keys):
    missing = [k for k in keys if k not in opts]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")


def _existing_file(path: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"input file does not exist: {path}")
    return path


def _read_data(opts: dict, reader):
    with open(_existing_file(opts["data"]), "r", encoding="utf-8") as fh:
        return reader(fh)


def _write_csv(path: str, writer, *args) -> None:
    buf = io.StringIO()
    writer(*args, buf)
    atomic_write_text(path, buf.getvalue())


def _model_params(opts: dict, command: str):
    """GbmParams, OuParams or TvGrowthParams from the ``model`` option and its
    parameter options, as simulate, filter and diagnose read them."""
    model = opts["model"]
    if model == "gbm":
        return GbmParams(beta=opts.get("beta", 0.0), sigma=opts.get("sigma", 0.0),
                         x0=opts.get("x0", 1.0))
    if model == "ou":
        return OuParams(gamma=opts.get("gamma", 1.0), beta_bar=opts.get("beta-bar", 0.0),
                        sigma=opts.get("sigma", 0.0), b0=opts.get("b0", 0.0))
    if model == "tv_growth":
        return TvGrowthParams(gamma=opts.get("gamma", 1.0), beta_bar=opts.get("beta-bar", 0.0),
                              sigma=opts.get("sigma", 0.0), b0=opts.get("b0", 0.0),
                              x0=opts.get("x0", 1.0))
    raise ConfigError(f"unknown model {model!r} for {command}")


def _cmd_simulate(opts: dict) -> int:
    _require(opts, "model", "t-end", "steps", "out")
    grid = TimeGrid(opts.get("t-start", 0.0), opts["t-end"], opts["steps"])
    seed = opts.get("seed", 0)
    p = _model_params(opts, "simulate")
    if isinstance(p, GbmParams):
        path = simulate_gbm_exact(p, grid, seed)
    elif isinstance(p, OuParams):
        path = simulate_ou(p, grid, seed)
    else:
        beta_path, x_path = simulate_tv_growth(p.ou, p.x0, grid, seed)
        path = Path(times=x_path.times,
                    values=np.column_stack([x_path.values[:, 0], beta_path.values[:, 0]]))
    _write_csv(opts["out"], write_path_csv, path)
    return 0


def _spread(v, scale: float = 1.0) -> float:
    """Sample standard deviation of ``v`` over ``scale``, or the default 0.1
    when that is 0, not finite, or undefined (fewer than two values)."""
    sd = float(np.std(v, ddof=1) / scale) if len(v) > 1 else 0.0
    return sd if np.isfinite(sd) and sd > 0 else 0.1


def _gbm_init_from_data(obs) -> tuple:
    """Start values (beta, sigma) of a gbm fit; a non-positive value is an error."""
    values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
    if np.any(values <= 0):
        i = int(np.argmax(values <= 0))
        raise DataFormatError(f"the gbm model needs positive values: x={float(values[i])!r} "
                              f"at t={float(obs.times[i])!r}")
    dts = np.diff(obs.times)
    r = np.diff(np.log(values))
    sigma0 = _spread(r / np.sqrt(dts))
    beta0 = float(np.mean(r / dts) + 0.5 * sigma0**2)
    return beta0, sigma0


def _ou_init_from_data(obs) -> tuple:
    values = np.asarray(obs.values, dtype=float).reshape(len(obs), -1)[:, 0]
    dts = np.diff(obs.times)
    mean_dt = float(np.mean(dts))
    centered = values - values.mean()
    denom = float(np.sum(centered**2))
    ac = float(np.sum(centered[:-1] * centered[1:]) / denom) if denom > 0 else 0.5
    ac = ac if np.isfinite(ac) else 0.5  # inf / inf when the squares overflow
    gamma0 = -np.log(min(max(ac, 0.01), 0.99)) / mean_dt
    sigma0 = _spread(np.diff(values), np.sqrt(mean_dt))
    return float(gamma0), float(values.mean()), sigma0


def _sigma_start(opts: dict, derived: float) -> float:
    """A fit's sigma start: ``--sigma`` as given, which must be positive, else
    ``derived`` (from the data) raised to at least 1e-8."""
    sigma = opts.get("sigma", max(derived, 1e-8))
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive to start a fit, got {sigma!r}")
    return sigma


def _cmd_fit(opts: dict) -> int:
    _require(opts, "method", "model", "data", "out")
    seed = opts.get("seed", 0)
    obs = _read_data(opts, read_observations_csv)
    if len(obs) < 2:
        raise InsufficientDataError(f"fit needs at least two observations, got {len(obs)}")
    method = opts["method"]
    model = opts["model"]

    if method == "mle":
        if model == "gbm":
            beta0, sigma0 = _gbm_init_from_data(obs)
            beta0 = opts.get("beta", beta0)
            free = ("beta",) if opts.get("fix-sigma") else ("beta", "sigma")
            td = GbmDensity(GbmParams(beta=beta0, sigma=_sigma_start(opts, sigma0)), free=free)
        elif model == "ou":
            gamma0, bbar0, sigma0 = _ou_init_from_data(obs)
            td = OuDensity(OuParams(gamma=opts.get("gamma", gamma0),
                                    beta_bar=opts.get("beta-bar", bbar0),
                                    sigma=_sigma_start(opts, sigma0)))
        else:
            raise ConfigError(f"mle supports models gbm and ou, not {model!r}")
        fit = mle_fit(td, obs, td.theta, seed=seed)
    elif method == "ee":
        if model != "gbm":
            raise ConfigError("ee fitting is implemented for the gbm model")
        _require(opts, "sigma")
        beta0, _ = _gbm_init_from_data(obs)
        beta0 = opts.get("beta", beta0)
        ef = EstimatingFunction(psi=raw_moment_psi((1,)), J=opts.get("j", 8))
        fit = ee_solve(gbm_beta_spec(beta0, opts["sigma"]), ef, obs,
                       np.array([beta0]), seed=seed)
    elif method == "bridge-mle":
        if model != "gbm":
            raise ConfigError("bridge-mle fitting is implemented for the gbm model")
        beta0, sigma0 = _gbm_init_from_data(obs)
        spec = gbm_spec(GbmParams(beta=opts.get("beta", beta0), sigma=_sigma_start(opts, sigma0)))
        td = BridgeDensity(spec, m_sub=opts.get("m-sub", 8),
                           j_samples=opts.get("j-samples", 200), seed=seed)
        fit = mle_fit(td, obs, td.theta, seed=seed)
    else:
        raise ConfigError(f"unknown fit method {method!r}")

    write_json(opts["out"], fit.to_json_dict())
    return 0 if fit.converged else 3


def _observation_model(opts: dict) -> ObservationModel:
    kind = opts.get("obs-kind", "gaussian")
    scale = opts.get("obs-scale")
    if scale is None:
        raise ConfigError("obs-scale is required")
    return ObservationModel(kind=kind, scale=scale, dof=opts.get("obs-dof"))


def _cmd_filter(opts: dict) -> int:
    _require(opts, "model", "data", "out")
    seed = opts.get("seed", 0)
    obs = _read_data(opts, read_noisy_csv)
    model_id = opts["model"]
    if model_id in ("ou", "gbm"):
        # the filter's OU state noise defaults to 1, not 0
        p = _model_params({"sigma": 1.0, **opts} if model_id == "ou" else opts, "filter")
        spec = ou_spec(p) if model_id == "ou" else gbm_spec(p)
        om = _observation_model(opts)
    elif model_id == "irw":
        _require(opts, "step-sd", "t-scale", "t-dof")
        n_coords = obs.y2d().shape[1]
        spec, om = preset_integrated_rw_t(opts["step-sd"], opts["t-scale"],
                                          opts["t-dof"], n_coords=n_coords)
        if opts.get("obs-kind") == "gaussian":
            om = gaussian_position_model(opts.get("obs-scale", opts["t-scale"]),
                                         n_coords=n_coords)
    else:
        raise ConfigError(f"unknown model {model_id!r} for filter")
    result = particle_filter(spec, om, obs, n_particles=opts.get("particles", 1000),
                             substeps=opts.get("substeps", 5), seed=seed)
    write_json(opts["out"], result.to_json_dict())
    return 0


def _cmd_collocate(opts: dict) -> int:
    _require(opts, "data", "out", "lambda", "obs-scale")
    obs = _read_data(opts, read_noisy_csv)
    if opts.get("model", "gbm") != "gbm":
        raise ConfigError("collocate currently supports the gbm drift model")
    # theta for the fit is the drift rate only; sigma stays fixed
    spec = gbm_beta_spec(opts.get("beta", 0.1), opts.get("sigma", 1.0))
    om = ObservationModel(kind="gaussian", scale=opts["obs-scale"])
    basis = BasisConfig.from_times(obs.times)
    pen = PenaltySpec(lam=opts["lambda"], weight_mode=opts.get("weight-mode", "unweighted"))
    fit, fitted = collocation_fit(obs, om, spec, basis, pen,
                                  max_outer=opts.get("max-outer", MAX_OUTER))
    payload = fit.to_json_dict()
    payload.update({
        "lambda": fit.diagnostics["lambda"],
        "weight_mode": fit.diagnostics["weight_mode"],
        "data_term": fit.diagnostics["data_term"],
        "penalty_term": fit.diagnostics["penalty_term"],
        "seed": opts.get("seed", 0),
    })
    write_json(opts["out"], payload)
    if "traj-out" in opts:
        _write_csv(opts["traj-out"], write_csv_table, ["t", "x_fit", "dxdt_fit"],
                   fitted.times, fitted.values)
    return 0 if fit.converged else 3


def _cmd_diagnose(opts: dict) -> int:
    _require(opts, "data", "out", "model")
    seed = opts.get("seed", 0)
    k = opts.get("k", DEFAULT_K)
    noisy = any(key.startswith("obs-") for key in opts)
    om = _observation_model(opts) if noisy else None
    observed = _read_data(opts, read_noisy_csv if noisy else read_observations_csv)
    model = _model_params(opts, "diagnose")
    synthetic = synthetic_replicates(model, observed.times, k, seed, om=om)
    report = envelope_check(observed, synthetic)
    write_json(opts["out"], report.to_json_dict())
    return 0


def _cmd_accept(opts: dict) -> int:
    selected = None
    if "criteria" in opts:
        selected = set()
        for v in opts["criteria"].split(","):
            try:
                selected.add(int(v))
            except ValueError:
                raise ConfigError(f"--criteria takes criterion numbers, got {v!r}") from None
        unknown = sorted(selected - set(range(1, 11)))
        if unknown:
            raise ConfigError(f"unknown acceptance criteria {unknown}: numbers run from 1 to 10")
    out_dir = opts.get("out-dir", "acceptance_out")
    os.makedirs(out_dir, exist_ok=True)
    all_ok = True
    wall_s = {}
    for criterion in acceptance.criteria(selected):
        start = time.perf_counter()
        res = criterion()
        # timing stays out of the criterion's details, which c10 compares byte for byte
        wall_s[res.name] = round(time.perf_counter() - start, 3)
        all_ok &= res.passed
        print(acceptance.format_result(res))
        write_json(os.path.join(out_dir, f"{res.name}.json"), res.to_json_dict())
    summary = {"all_passed": bool(all_ok), "criteria": list(wall_s), "wall_s": wall_s}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0 if all_ok else 1


_DISPATCH = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "filter": _cmd_filter,
    "collocate": _cmd_collocate,
    "diagnose": _cmd_diagnose,
    "accept": _cmd_accept,
}


@_fp_policy()  # overflow at numerical extremes ends in a typed error or a result
def cli_run(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        options = {}
        if ns.config is not None:
            options = load_config(_existing_file(ns.config)).get(ns.command, {})
        for key in OPTIONS[ns.command]:
            flag = getattr(ns, key.replace("-", "_"))
            if flag is not None:
                options[key] = flag
        return _DISPATCH[ns.command](typed_options(ns.command, options))
    except (ConfigError, DriftlabError, ValueError, OSError) as exc:
        print(f"driftlab {ns.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))
