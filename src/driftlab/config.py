"""Run configuration: flat key-value config files with one section per
subcommand, merged with command-line flag overrides.

Unknown sections or keys are hard errors so typos cannot silently change a
run.
"""

from __future__ import annotations

import configparser

from .errors import ConfigError

MAX_SEED = 2**64 - 1


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# options shared by several commands: the model parameters of simulate, filter
# and diagnose, and the observation noise of filter and diagnose
_MODEL_PARAMETERS = {
    "beta": (float, "GBM growth rate"),
    "sigma": (float, "volatility / OU noise scale"),
    "x0": (float, "initial state"),
    "gamma": (float, "OU mean-reversion rate"),
    "beta-bar": (float, "OU long-run mean"),
    "b0": (float, "OU initial value"),
}
_OBSERVATION_NOISE = {
    "obs-kind": (str, "observation noise: gaussian | student_t"),
    "obs-scale": (float, "observation noise scale"),
    "obs-dof": (float, "observation t degrees of freedom"),
}

# per-subcommand option tables: key -> (type, help)
OPTIONS: dict[str, dict] = {
    "simulate": {
        "model": (str, "model id: gbm | ou | tv_growth"),
        **_MODEL_PARAMETERS,
        "t-start": (float, "grid start time (default 0)"),
        "t-end": (float, "grid end time"),
        "steps": (int, "number of grid steps"),
        "seed": (int, "random seed"),
        "out": (str, "output CSV path"),
    },
    "fit": {
        "method": (str, "mle | ee | bridge-mle"),
        "model": (str, "model id: gbm | ou"),
        "data": (str, "observations CSV (t,x)"),
        "out": (str, "output FitResult JSON path"),
        "seed": (int, "random seed"),
        "beta": (float, "initial beta (gbm)"),
        "sigma": (float, "initial / fixed sigma"),
        "gamma": (float, "initial gamma (ou)"),
        "beta-bar": (float, "initial long-run mean (ou)"),
        "fix-sigma": (_bool, "hold sigma fixed at its given value"),
        "j": (int, "Monte Carlo replicates for ee"),
        "m-sub": (int, "bridge substeps per observation gap"),
        "j-samples": (int, "bridge importance samples per pair"),
    },
    "filter": {
        "model": (str, "state model: ou | gbm | irw"),
        "data": (str, "noisy observations CSV (t,y)"),
        "out": (str, "output filter JSON path"),
        "seed": (int, "random seed"),
        **_MODEL_PARAMETERS,
        "step-sd": (float, "irw velocity increment sd"),
        "t-scale": (float, "irw observation t scale"),
        "t-dof": (float, "irw observation t degrees of freedom"),
        **_OBSERVATION_NOISE,
        "particles": (int, "number of particles"),
        "substeps": (int, "Euler substeps between observations"),
    },
    "collocate": {
        "data": (str, "noisy observations CSV (t,y)"),
        "out": (str, "output FitResult JSON path"),
        "traj-out": (str, "fitted trajectory CSV path"),
        "seed": (int, "recorded seed (fit itself is deterministic)"),
        "model": (str, "drift model id: gbm"),
        "beta": (float, "initial beta"),
        "sigma": (float, "model sigma (for sigma_weighted)"),
        "lambda": (float, "penalty weight"),
        "weight-mode": (str, "unweighted | sigma_weighted"),
        "obs-scale": (float, "gaussian observation scale"),
        "max-outer": (int, "iteration cap of each collocation pass"),
    },
    "diagnose": {
        "data": (str, "observed dataset CSV"),
        "out": (str, "output report JSON path"),
        "seed": (int, "random seed"),
        "model": (str, "fitted model id: gbm | ou | tv_growth"),
        **_MODEL_PARAMETERS,
        "k": (int, "number of synthetic replicates"),
        **_OBSERVATION_NOISE,
    },
    "accept": {
        "out-dir": (str, "directory for acceptance result files"),
        "criteria": (str, "comma-separated criterion numbers (default: all)"),
    },
}


def typed_options(command: str, options: dict) -> dict:
    """``options`` of ``command`` (raw strings from flags or a config file)
    with each value converted to its declared type."""
    table = OPTIONS[command]
    out = {}
    for key, raw in options.items():
        try:
            out[key] = table[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    if "seed" in out and not (0 <= out["seed"] <= MAX_SEED):
        raise ConfigError("seed must be a 64-bit unsigned integer")
    return out


def parse_config_text(text: str) -> dict:
    """Parse config text into {section: {key: raw string value}} with validation."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    out = {}
    for section in parser.sections():
        if section not in OPTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        items = dict(parser.items(section))
        unknown = sorted(set(items) - set(OPTIONS[section]))
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {', '.join(unknown)}")
        out[section] = items
    return out


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
