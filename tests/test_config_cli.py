import difflib
import importlib.util
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from driftlab import cli, likelihood
from driftlab.cli import cli_run
from driftlab.config import parse_config_text, typed_options
from driftlab.errors import ConfigError, DegenerateImportanceError
from driftlab.ioutil import atomic_write_text

# README's one parser, and its outputs, come from the script that records them
_spec = importlib.util.spec_from_file_location(
    "golden_acceptance", Path(__file__).resolve().parents[1] / "scripts" / "golden_acceptance.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
README_GOLDEN = golden.DEFAULT_OUT.parent / "readme"


def run(tmp_path, *argv):
    return cli_run([str(a) for a in argv])


def test_simulate_row_count(tmp_path):
    out = tmp_path / "path.csv"
    code = cli_run(["simulate", "--model", "gbm", "--beta", "0.1", "--sigma", "0.3",
                    "--x0", "1", "--t-end", "1", "--steps", "100", "--seed", "7",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 102  # header + 101 rows


def test_simulate_twice_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--model", "ou", "--gamma", "1.0", "--beta-bar", "0.2",
            "--sigma", "0.4", "--b0", "0", "--t-end", "2", "--steps", "50",
            "--seed", "3"]
    assert cli_run(args + ["--out", str(a)]) == 0
    assert cli_run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_round_trip(tmp_path):
    data = tmp_path / "obs.csv"
    fit_json = tmp_path / "fit.json"
    assert cli_run(["simulate", "--model", "gbm", "--beta", "0.1", "--sigma", "0.2",
                    "--x0", "1", "--t-end", "20", "--steps", "200", "--seed", "5",
                    "--out", str(data)]) == 0
    code = cli_run(["fit", "--method", "mle", "--model", "gbm", "--data", str(data),
                    "--seed", "1", "--out", str(fit_json)])
    assert code == 0
    payload = json.loads(fit_json.read_text())
    assert payload["converged"] is True
    assert abs(payload["theta_hat"][0] - 0.1) < 0.2
    assert abs(payload["theta_hat"][1] - 0.2) < 0.1
    assert payload["stderr"] is not None


def test_fit_tiny_sigma_keeps_estimate(tmp_path):
    # sigma-hat near 4e-5 sits below a natural-scale probe step of 1e-4; differenced
    # on the log scale, the fit must still exit 0 and write its estimate and standard errors
    t = 0.1 * np.arange(21)
    b = np.concatenate([[0.0], np.cumsum(np.sqrt(0.1) * np.random.default_rng(0).normal(size=20))])
    data = tmp_path / "tiny.csv"
    data.write_text("t,x\n" + "".join(
        f"{ti!r},{xi!r}\n" for ti, xi in zip(t.tolist(), np.exp(0.1 * t + 5e-5 * b).tolist())))
    out = tmp_path / "fit.json"
    assert cli_run(["fit", "--method", "mle", "--model", "gbm", "--data", str(data),
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["theta_hat"][1] < 1e-4
    assert payload["stderr"] is not None and all(v > 0 for v in payload["stderr"])
    assert payload["diagnostics"]["stderr_log_scale"] == [False, True]


@pytest.mark.parametrize("text, message", [
    ("t,x\n", "no data rows"),
    ("t,x\n0,1\n0.1,1,2\n", "line 3: expected 2 fields, got 3"),
])
def test_malformed_csv_exits_2_with_message(tmp_path, capsys, text, message):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    code = cli_run(["fit", "--method", "mle", "--model", "gbm", "--data", str(data),
                    "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


FIT_METHODS = [
    ["--method", "mle", "--model", "gbm"],
    ["--method", "mle", "--model", "ou"],
    ["--method", "ee", "--model", "gbm", "--sigma", "0.3"],
    ["--method", "bridge-mle", "--model", "gbm", "--j-samples", "50"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", FIT_METHODS, ids=lambda m: "-".join(m[1:4:2]))
def test_fit_one_row_csv_exits_2_naming_the_count(tmp_path, capsys, method):
    data = tmp_path / "one.csv"
    data.write_text("t,x\n0,1.0\n")
    out = tmp_path / "f.json"
    assert cli_run(["fit", *method, "--data", str(data), "--out", str(out)]) == 2
    assert "fit needs at least two observations, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", FIT_METHODS, ids=lambda m: "-".join(m[1:4:2]))
def test_fit_two_row_csv_writes_a_result(tmp_path, capsys, method):
    # one increment has no sample spread; the start value falls back to its
    # default.  Only ee, with one free parameter, can be fitted from one pair.
    data = tmp_path / "two.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.2\n")
    out = tmp_path / "f.json"
    code = cli_run(["fit", *method, "--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert "nan" not in err
    if method[1] == "ee":
        assert code in (0, 3)
        assert "theta_hat" in json.loads(out.read_text())
    else:
        n_free = 3 if method[3] == "ou" else 2
        assert code == 2
        assert f"at least {n_free} observation pairs for {n_free} free parameters, got 1" in err
        assert not out.exists()


def test_fit_ee_and_bridge(tmp_path):
    data = tmp_path / "obs.csv"
    cli_run(["simulate", "--model", "gbm", "--beta", "0.1", "--sigma", "0.1",
             "--x0", "1", "--t-end", "10", "--steps", "100", "--seed", "8",
             "--out", str(data)])
    out_ee = tmp_path / "ee.json"
    assert cli_run(["fit", "--method", "ee", "--model", "gbm", "--data", str(data),
                    "--sigma", "0.1", "--j", "4", "--seed", "2",
                    "--out", str(out_ee)]) == 0
    assert json.loads(out_ee.read_text())["converged"] is True

    out_br = tmp_path / "bridge.json"
    assert cli_run(["fit", "--method", "bridge-mle", "--model", "gbm",
                    "--data", str(data), "--m-sub", "4", "--j-samples", "50",
                    "--seed", "2", "--out", str(out_br)]) == 0
    payload = json.loads(out_br.read_text())
    assert abs(payload["theta_hat"][0] - 0.1) < 0.3


def _gbm_csv(tmp_path, seed):
    data = tmp_path / f"gbm{seed}.csv"
    assert cli_run(["simulate", "--model", "gbm", "--beta", "0.1", "--sigma", "0.2",
                    "--x0", "1", "--t-end", "10", "--steps", "100", "--seed", str(seed),
                    "--out", str(data)]) == 0
    return data


def _fit(tmp_path, data, method, *flags):
    out = tmp_path / f"{method}.json"
    code = cli_run(["fit", "--method", method, "--model", "gbm", "--data", str(data),
                    "--seed", "2", *flags, "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("seed", [1, 5])
def test_bridge_mle_standard_errors_agree_with_closed_form(tmp_path, seed):
    data = _gbm_csv(tmp_path, seed)
    code, exact = _fit(tmp_path, data, "mle")
    assert code == 0
    code, bridge = _fit(tmp_path, data, "bridge-mle", "--m-sub", "8", "--j-samples", "200")
    assert code == 0
    assert np.allclose(bridge["stderr"], exact["stderr"], rtol=0.02, atol=0.0)


def test_bridge_mle_keeps_its_estimate_when_stderr_probes_fail(tmp_path, monkeypatch):
    calls, budget = [0], [np.inf]
    record_terms = likelihood.BridgeDensity.record_terms

    def failing_after_budget(self, dts, x, y):
        at = record_terms(self, dts, x, y)

        def counted(theta):
            calls[0] += 1
            if calls[0] > budget[0]:
                raise DegenerateImportanceError(0)
            return at(theta)
        return counted

    monkeypatch.setattr(likelihood.BridgeDensity, "record_terms", failing_after_budget)
    data = _gbm_csv(tmp_path, 1)
    _, reference = _fit(tmp_path, data, "bridge-mle", "--m-sub", "4", "--j-samples", "50")
    assert reference["stderr"] is not None
    # the same fit again, now with the standard errors' probes raising: their one
    # stacked call is the fit's last, and each probe then counts as -inf row by row
    budget[0], calls[0] = calls[0] - 1, 0
    code, fit = _fit(tmp_path, data, "bridge-mle", "--m-sub", "4", "--j-samples", "50")
    assert code == 0
    assert fit["stderr"] is None
    assert fit["theta_hat"] == reference["theta_hat"]
    assert calls[0] == budget[0] + 1 + 8


def test_filter_command(tmp_path):
    data = tmp_path / "noisy.csv"
    rng = np.random.default_rng(0)
    lines = ["t,y"] + [f"{0.1*i},{rng.normal(0, 0.5)}" for i in range(50)]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "filter.json"
    code = cli_run(["filter", "--model", "ou", "--gamma", "1", "--beta-bar", "0",
                    "--sigma", "0.5", "--b0", "0", "--obs-scale", "0.3",
                    "--particles", "200", "--substeps", "2", "--seed", "4",
                    "--data", str(data), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"loglik", "ess_trace", "filtered_means",
                            "resample_steps", "seed"}
    assert len(payload["filtered_means"]) == 50


def test_collocate_command_and_nonconvergence_exit(tmp_path):
    times = np.linspace(0, 2, 30)
    data = tmp_path / "obs.csv"
    data.write_text("t,y\n" + "\n".join(
        f"{t},{np.exp(0.3*t)}" for t in times) + "\n")
    out = tmp_path / "fit.json"
    traj = tmp_path / "traj.csv"
    code = cli_run(["collocate", "--data", str(data), "--lambda", "100",
                    "--obs-scale", "1e-4", "--beta", "0.5", "--out", str(out),
                    "--traj-out", str(traj)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {"lambda", "weight_mode", "data_term", "penalty_term"} <= set(payload)
    assert traj.read_text().splitlines()[0] == "t,x_fit,dxdt_fit"

    # one outer iteration cannot converge from a bad start: file still written
    out2 = tmp_path / "fit2.json"
    code = cli_run(["collocate", "--data", str(data), "--lambda", "100",
                    "--obs-scale", "1e-4", "--beta", "3.0", "--max-outer", "1",
                    "--out", str(out2)])
    assert code == 3
    assert json.loads(out2.read_text())["converged"] is False


def test_collocate_records_its_seed(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("t,y\n" + "\n".join(
        f"{t},{np.exp(0.3*t)}" for t in np.linspace(0, 2, 30)) + "\n")
    seeds = []
    for extra in ([], ["--seed", "7"]):
        out = tmp_path / "fit.json"
        assert cli_run(["collocate", "--data", str(data), "--lambda", "100",
                        "--obs-scale", "1e-4", "--beta", "0.5", "--out", str(out),
                        *extra]) == 0
        seeds.append(json.loads(out.read_text())["seed"])
    assert seeds == [0, 7]


def test_diagnose_command(tmp_path):
    data = tmp_path / "obs.csv"
    cli_run(["simulate", "--model", "gbm", "--beta", "0.1", "--sigma", "0.2",
             "--x0", "1", "--t-end", "5", "--steps", "50", "--seed", "6",
             "--out", str(data)])
    out = tmp_path / "report.json"
    code = cli_run(["diagnose", "--model", "gbm", "--beta", "0.1", "--sigma", "0.2",
                    "--x0", "1", "--k", "25", "--seed", "9", "--data", str(data),
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_replicates"] == 25


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[simulate]\nmodel = gbm\nbogus-key = 1\n")
    code = cli_run(["simulate", "--config", str(cfg), "--out", "x.csv"])
    assert code == 2


def test_missing_data_file_rejected(tmp_path):
    code = cli_run(["fit", "--method", "mle", "--model", "gbm",
                    "--data", str(tmp_path / "nope.csv"), "--out",
                    str(tmp_path / "f.json")])
    assert code == 2


def test_config_file_with_flag_override(tmp_path):
    data_cfg = tmp_path / "run.cfg"
    out = tmp_path / "o.csv"
    data_cfg.write_text(
        "[simulate]\nmodel = gbm\nbeta = 0.1\nsigma = 0.0\nx0 = 1\n"
        "t-end = 1\nsteps = 10\nseed = 1\n")
    code = cli_run(["simulate", "--config", str(data_cfg), "--steps", "20",
                    "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 22  # flag override wins


def test_bad_values_exit_2_through_one_typing_path(tmp_path, capsys):
    # flags and config values are typed by the same code and fail the same way
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.2\n1,1.1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[simulate]\nmodel = gbm\nt-end = 1\nsteps = abc\n")
    cases = [
        (["simulate", "--model", "gbm", "--t-end", "1", "--steps", "abc"], "steps"),
        (["simulate", "--config", cfg], "steps"),
        (["fit", "--method", "mle", "--model", "gbm", "--fix-sigma", "maybe",
          "--data", data], "fix-sigma"),
    ]
    for argv, key in cases:
        out = tmp_path / "out"
        assert run(tmp_path, *argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"driftlab {argv[0]}: error: bad value for {key!r}: ")
        assert err.count("\n") == 1
        assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", [m for m in FIT_METHODS if m[3] == "gbm"],
                         ids=lambda m: m[1])
def test_fit_gbm_non_positive_value_exits_2(tmp_path, capsys, monkeypatch, method):
    # the record is rejected before any fit starts
    for name in ("mle_fit", "ee_solve"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("a fit started"))
    data = tmp_path / "neg.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.2\n1.5,-0.25\n2,0\n")
    out = tmp_path / "f.json"
    assert cli_run(["fit", *method, "--data", str(data), "--out", str(out)]) == 2
    assert "positive values: x=-0.25 at t=1.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["gbm", "ou"])
def test_fit_sigma_overflowing_its_square_exits_2(tmp_path, capsys, model):
    # sigma**2 overflows a float: the start is non-finite, not a traceback
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.1\n1.0,0.9\n1.5,1.2\n")
    out = tmp_path / "f.json"
    code = cli_run(["fit", "--method", "mle", "--model", model, "--sigma", "1e160",
                    "--data", str(data), "--out", str(out)])
    assert code == 2
    assert "log-likelihood non-finite at init_theta" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_gbm_sigma_overflowing_its_square_exits_2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = cli_run(["simulate", "--model", "gbm", "--t-end", "1", "--steps", "3",
                    "--sigma", "1e200", "--out", str(out)])
    assert code == 2
    assert "path values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_gbm_sigma_overflowing_its_square_is_indeterminate(tmp_path):
    # every synthetic path falls to 0, GBM's sigma -> infinity limit
    data = tmp_path / "obs.csv"
    data.write_text("t,y\n0,1.0\n0.5,1.2\n1,1.1\n1.5,1.3\n")
    out = tmp_path / "report.json"
    code = cli_run(["diagnose", "--model", "gbm", "--k", "20", "--sigma", "1e200",
                    "--data", str(data), "--out", str(out)])
    assert code == 0
    stats = json.loads(out.read_text())["statistics"]
    assert len(stats) == 5 and all(s["indeterminate"] for s in stats)


@pytest.mark.parametrize("obs_flags, message", [
    (["--obs-kind", "student_t"], "obs-scale is required"),
    (["--obs-dof", "4"], "obs-scale is required"),
    (["--k", "-1"], "k must be non-negative, got -1"),  # an option error names its option too
], ids=["obs-kind", "obs-dof", "k"])
def test_diagnose_observation_options_need_obs_scale(tmp_path, capsys, obs_flags, message):
    data = tmp_path / "obs.csv"
    data.write_text("t,y\n0,1.0\n0.5,1.2\n1,1.1\n")
    out = tmp_path / "report.json"
    code = cli_run(["diagnose", "--model", "gbm", "--beta", "0.1", "--sigma", "0.2",
                    *obs_flags, "--data", str(data), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_seed_must_be_64_bit():
    with pytest.raises(ConfigError):
        typed_options("simulate", {"seed": str(2**64)})


def test_unknown_command_or_section():
    with pytest.raises(ConfigError):
        parse_config_text("[frobnicate]\nx = 1\n")


def test_atomic_write_replaces_and_cleans(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(str(target), "new")
    assert target.read_text() == "new"

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_text(str(target), "newer")
    assert target.read_text() == "new"  # target untouched
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_fit_twice_byte_identical(tmp_path):
    data = tmp_path / "obs.csv"
    cli_run(["simulate", "--model", "gbm", "--beta", "0.1", "--sigma", "0.2",
             "--x0", "1", "--t-end", "10", "--steps", "100", "--seed", "5",
             "--out", str(data)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fit", "--method", "mle", "--model", "gbm", "--data", str(data),
            "--seed", "1"]
    assert cli_run(args + ["--out", str(a)]) == 0
    assert cli_run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    import driftlab

    # the subprocess imports the driftlab this test imported, wherever that is
    src = os.path.dirname(os.path.dirname(driftlab.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "driftlab", "simulate", "--model", "gbm",
         "--beta", "0.1", "--sigma", "0", "--x0", "1", "--t-end", "1",
         "--steps", "5", "--seed", "0", "--out", str(out)],
        capture_output=True, env=env)
    assert proc.returncode == 0
    assert len(out.read_text().splitlines()) == 7


def test_no_subcommand_usage_error(capsys):
    assert cli_run([]) == 2


@pytest.mark.parametrize("max_outer", ["0", "-5"])
def test_collocate_max_outer_below_one_rejected(tmp_path, capsys, max_outer):
    data = tmp_path / "obs.csv"
    data.write_text("t,y\n" + "\n".join(f"{t},{np.exp(0.3 * t)}" for t in range(5)) + "\n")
    out = tmp_path / "fit.json"
    code = cli_run(["collocate", "--data", str(data), "--lambda", "100",
                    "--obs-scale", "1e-4", "--max-outer", max_outer, "--out", str(out)])
    assert code == 2
    assert "max_outer must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("criteria, named", [
    ("11", "[11]"), ("0,12", "[0, 12]"),
    ("a", "--criteria takes criterion numbers, got 'a'"),
    ("3,,4", "--criteria takes criterion numbers, got ''"),
])
def test_accept_rejects_criteria_outside_one_to_ten(tmp_path, capsys, criteria, named):
    out_dir = tmp_path / "acc"
    code = cli_run(["accept", "--criteria", criteria, "--out-dir", str(out_dir)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out_dir.exists()


def test_collocate_rejects_columns_the_link_does_not_give(tmp_path, capsys):
    # the collocate command fits one state through the identity link, so a
    # second observation column is an input error, not a silently dropped one
    data = tmp_path / "obs.csv"
    data.write_text("t,y1,y2\n" + "\n".join(f"{t},{np.exp(0.3 * t)},{2 * np.exp(0.3 * t)}"
                                            for t in range(5)) + "\n")
    out = tmp_path / "fit.json"
    code = cli_run(["collocate", "--data", str(data), "--lambda", "100",
                    "--obs-scale", "1e-4", "--out", str(out)])
    assert code == 2
    assert "2 column(s)" in capsys.readouterr().err
    assert not out.exists()


def test_accept_writes_each_criterion_wall_time_to_the_summary(tmp_path):
    out_dir = tmp_path / "acc"
    assert cli_run(["accept", "--criteria", "3", "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["criteria"] == ["c03_fokker_planck"]
    assert set(summary["wall_s"]) == {"c03_fokker_planck"}
    assert 0 < summary["wall_s"]["c03_fokker_planck"] < 60
    # the per-criterion file keeps only the criterion's own numbers
    details = json.loads((out_dir / "c03_fokker_planck.json").read_text())["details"]
    assert not any("wall" in key for key in details)


CONSTANT_ROWS = "t,x\n0,1\n1,1\n2,1\n3,1\n4,1\n"
TINY_GAP_ROWS = "t,x\n0,1\n1e-300,1.1\n2e-300,0.9\n3e-300,1.2\n4e-300,1.0\n"


@pytest.mark.parametrize("rows, argv, code", [
    (CONSTANT_ROWS, ["fit", "--method", "mle", "--model", "ou"], 0),
    (CONSTANT_ROWS, ["fit", "--method", "mle", "--model", "gbm"], 3),
    (TINY_GAP_ROWS, ["fit", "--method", "mle", "--model", "ou"], 0),
    (TINY_GAP_ROWS, ["fit", "--method", "mle", "--model", "gbm"], 3),
    (None, ["simulate", "--model", "gbm", "--t-end", "1", "--steps", "3", "--sigma", "1e200"], 2),
    (CONSTANT_ROWS, ["diagnose", "--model", "gbm", "--k", "20", "--sigma", "1e200"], 0),
], ids=["ou-constant", "gbm-constant", "ou-tiny-gaps", "gbm-tiny-gaps", "simulate-overflow",
        "diagnose-overflow"])
def test_no_numpy_warning_reaches_the_user(tmp_path, capsys, rows, argv, code):
    # numerical extremes end in the command's usual exit code, with no raw
    # RuntimeWarning printed on the way, and a fit's estimate is finite
    out = ["--out", str(tmp_path / ("out.csv" if argv[0] == "simulate" else "out.json"))]
    if rows is not None:
        (tmp_path / "obs.csv").write_text(rows)
        out += ["--data", str(tmp_path / "obs.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_run(argv + out) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if argv[0] == "fit":
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(json.loads((tmp_path / "out.json").read_text())["theta_hat"]))


def test_overflowing_ou_start_names_init_theta(tmp_path, capsys):
    # the lag-1 autocorrelation of these values is inf / inf; the start value
    # falls back instead of becoming nan
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1e300\n1,1e-300\n2,1e300\n3,1e-300\n4,1e300\n")
    out = tmp_path / "f.json"
    assert cli_run(["fit", "--method", "mle", "--model", "ou", "--data", str(data),
                    "--out", str(out)]) == 2
    assert "init_theta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
def test_bridge_fit_at_extreme_sigma_starts_warns_nothing(tmp_path, capsys, sigma):
    # a given sigma start is used as given: at 1e-200 sigma^2 underflows and at
    # 1e200 it overflows in the bridge's weights.  Either way the fit ends in a
    # result or a typed error, never a traceback or a numpy warning
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.1\n1.0,0.9\n1.5,1.2\n2.0,1.15\n")
    code = cli_run(["fit", "--method", "bridge-mle", "--model", "gbm", "--sigma", sigma,
                    "--m-sub", "4", "--j-samples", "20", "--data", str(data),
                    "--out", str(tmp_path / "f.json")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.filterwarnings("error")
def test_bridge_fit_from_a_degenerate_start_names_init_theta(tmp_path, capsys):
    # every importance weight underflows at sigma 1e-200: a bad start, said in
    # the closed forms' words
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.1\n1.0,0.9\n1.5,1.2\n2.0,1.15\n")
    out = tmp_path / "f.json"
    assert cli_run(["fit", "--method", "bridge-mle", "--model", "gbm", "--sigma", "1e-200",
                    "--j-samples", "20", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "log-likelihood non-finite at init_theta=" in err
    assert "importance weights" not in err and "Traceback" not in err
    assert not out.exists()


def test_fixed_sigma_fit_runs_at_the_given_sigma(tmp_path):
    # a given --sigma is not raised to the 1e-8 floor of the data-derived start
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.1\n1.0,0.9\n1.5,1.2\n2.0,1.15\n")
    out = tmp_path / "f.json"
    assert cli_run(["fit", "--method", "mle", "--model", "gbm", "--fix-sigma", "true",
                    "--sigma", "1e-12", "--data", str(data), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    (beta_hat,) = payload["theta_hat"]
    at_given = likelihood.discrete_loglikelihood(
        likelihood.GbmDensity(cli.GbmParams(beta=beta_hat, sigma=1e-12)),
        cli.read_observations_csv(io.StringIO(data.read_text())))
    assert payload["objective"] == pytest.approx(at_given, rel=1e-12)


@pytest.mark.parametrize("method, model", [("mle", "gbm"), ("mle", "ou"),
                                           ("bridge-mle", "gbm")])
@pytest.mark.parametrize("sigma", ["0", "-0.5"])
def test_non_positive_sigma_start_exits_2(tmp_path, capsys, method, model, sigma):
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.1\n1.0,0.9\n1.5,1.2\n")
    out = tmp_path / "f.json"
    assert cli_run(["fit", "--method", method, "--model", model, "--sigma", sigma,
                    "--data", str(data), "--out", str(out)]) == 2
    assert "sigma must be positive" in capsys.readouterr().err
    assert not out.exists()


# every command that reads a time axis, with {t} as one of its times
TIME_AXIS_RUNS = {
    "fit-mle-gbm": ["fit", "--method", "mle", "--model", "gbm", "--data", "{csv}"],
    "fit-mle-ou": ["fit", "--method", "mle", "--model", "ou", "--data", "{csv}"],
    "fit-ee": ["fit", "--method", "ee", "--model", "gbm", "--sigma", "0.2", "--j", "4",
               "--data", "{csv}"],
    "fit-bridge-mle": ["fit", "--method", "bridge-mle", "--model", "gbm", "--m-sub", "4",
                       "--j-samples", "20", "--data", "{csv}"],
    "filter": ["filter", "--model", "ou", "--obs-scale", "0.3", "--particles", "50",
               "--data", "{csv}"],
    "collocate": ["collocate", "--lambda", "1", "--obs-scale", "0.3", "--data", "{csv}"],
    "diagnose": ["diagnose", "--model", "gbm", "--sigma", "0.2", "--k", "5",
                 "--data", "{csv}"],
    "simulate": ["simulate", "--model", "gbm", "--steps", "3", "--t-end={t}"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run_name", TIME_AXIS_RUNS)
@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_non_finite_time_exits_2_naming_the_times(tmp_path, capsys, run_name, t):
    csv = tmp_path / "obs.csv"
    csv.write_text(f"t,x\n0,1.0\n0.5,1.1\n{t},0.9\n1.5,1.2\n")
    out = tmp_path / "out"
    argv = [a.format(csv=csv, t=t) for a in TIME_AXIS_RUNS[run_name]]
    assert cli_run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "times must be finite and strictly increasing" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_one_parser_serves_every_run_in_a_process(tmp_path, capsys):
    # a run that fails to parse, a fit and another command give the same exit
    # codes, messages and files through the shared parser as through fresh ones
    data = tmp_path / "obs.csv"
    data.write_text("t,x\n0,1.0\n0.5,1.1\n1.0,0.9\n1.5,1.2\n2.0,1.15\n")
    runs = [["fit", "--method", "mle", "--no-such-option", "1"],
            ["fit", "--method", "mle", "--model", "gbm", "--data", str(data),
             "--out", "{out}/fit.json"],
            ["simulate", "--model", "ou", "--sigma", "0.3", "--t-end", "1", "--steps", "5",
             "--out", "{out}/path.csv"]]

    def run_each(out, fresh):
        out.mkdir()
        seen = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
            seen.append((cli_run([a.format(out=out) for a in argv]), capsys.readouterr()))
        return seen, {f.name: f.read_bytes() for f in out.iterdir()}

    parser = cli.build_parser()
    shared = run_each(tmp_path / "shared", fresh=False)
    assert cli.build_parser() is parser
    assert [code for code, _ in shared[0]] == [2, 0, 0]
    assert run_each(tmp_path / "fresh", fresh=True) == shared
    assert set(shared[1]) == {"fit.json", "path.csv"}


def test_readme_commands_write_their_recorded_outputs(tmp_path):
    assert [argv[:3] for argv in golden.readme_commands("simulate", "fit")] == [
        ["simulate", "--model", "gbm"], ["fit", "--method", "mle"],
        ["fit", "--method", "ee"], ["fit", "--method", "bridge-mle"]]
    outputs = golden.readme_outputs(tmp_path)
    recorded = {p.name: p.read_bytes() for p in README_GOLDEN.iterdir()}
    assert sorted(outputs) == sorted(recorded) == ["bridge.json", "ee.json", "fit.json",
                                                   "path.csv"]
    moved = {name: "".join(difflib.unified_diff(
        recorded[name].decode().splitlines(keepends=True),
        outputs[name].decode().splitlines(keepends=True), "recorded", "fresh"))
        for name in recorded if outputs[name] != recorded[name]}
    assert not moved, ("regenerate with scripts/golden_acceptance.py and declare:\n"
                       + "\n".join(moved.values()))


def test_ee_fit_of_an_overflowing_record_exits_2(tmp_path, capsys, monkeypatch):
    # README's path times 1e306: the residual overflows at the start
    monkeypatch.chdir(tmp_path)
    assert cli_run(golden.readme_commands("simulate")[0]) == 0
    rows = np.loadtxt("path.csv", delimiter=",", skiprows=1)
    np.savetxt("big.csv", rows * [1.0, 1e306], fmt="%.17g", delimiter=",", header="t,x1",
               comments="")
    assert cli_run(["fit", "--method", "ee", "--model", "gbm", "--data", "big.csv",
                    "--sigma", "0.3", "--out", "ee.json"]) == 2
    assert "init_theta" in capsys.readouterr().err
    assert not (tmp_path / "ee.json").exists()
