"""One-shot suite report: wall time of each acceptance criterion, of each
README command and of the Tier-1 test run, each run once.  Ungated: it is a
yardstick kept beside the baseline, never part of the benchmark's measured
runs.

    python3 perfbench/suite.py

Criteria c01-c10 run through ``driftlab.acceptance`` at their fixed seeds
(c10 sets DRIFTLAB_THREADS itself); the README commands run through
``driftlab.cli.cli_run`` on files made in a scratch directory under
``.perfbench/``.  Progress goes to standard error; the report is one JSON
object, the last line of standard output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def readme_commands(work: Path) -> list:
    """The README's command-line examples, on inputs made in ``work``."""
    path, noisy = str(work / "path.csv"), str(work / "noisy.csv")

    def out(name: str) -> str:
        return str(work / name)

    return [
        ["simulate", "--model", "gbm", "--beta", "0.1", "--sigma", "0.3", "--x0", "1",
         "--t-end", "1", "--steps", "100", "--seed", "7", "--out", path],
        ["fit", "--method", "mle", "--model", "gbm", "--data", path, "--seed", "1",
         "--out", out("fit.json")],
        ["fit", "--method", "ee", "--model", "gbm", "--data", path, "--sigma", "0.3",
         "--j", "8", "--out", out("ee.json")],
        ["fit", "--method", "bridge-mle", "--model", "gbm", "--data", path,
         "--m-sub", "8", "--j-samples", "200", "--out", out("bridge.json")],
        ["filter", "--model", "ou", "--gamma", "1", "--beta-bar", "0", "--sigma", "0.5",
         "--b0", "0", "--obs-scale", "0.3", "--particles", "2000", "--substeps", "5",
         "--seed", "3", "--data", noisy, "--out", out("filter.json")],
        ["collocate", "--data", noisy, "--lambda", "1e4", "--obs-scale", "1e-4",
         "--beta", "0.5", "--out", out("colloc.json"), "--traj-out", out("traj.csv")],
        ["diagnose", "--model", "gbm", "--beta", "0.1", "--sigma", "0.2", "--x0", "1",
         "--data", path, "--k", "50", "--seed", "9", "--out", out("report.json")],
    ]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from driftlab import NoisyObservationSet, OuParams, TimeGrid, acceptance, simulate_ou, stream
    from driftlab.cli import cli_run
    from driftlab.observe import write_observations_csv
    from worker import machine_record

    report = {"machine": machine_record(), "criteria": [], "cli": []}
    criteria = list(acceptance.CORE_CRITERIA) + [acceptance.criterion_determinism]
    for fn in criteria:
        res, wall = _timed(fn)
        report["criteria"].append({"name": res.name, "passed": bool(res.passed), "wall_s": wall})
        print(f"{res.name:28s} {'PASS' if res.passed else 'FAIL'} {wall:8.2f} s",
              file=sys.stderr, flush=True)

    work = ROOT / ".perfbench" / f"suite-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # noisy OU observations for the filter and collocate examples
        grid = TimeGrid(0.0, 4.9, 49)
        latent = simulate_ou(OuParams(1.0, 0.0, 0.5), grid, 11).scalar_values()
        y = latent + 0.3 * stream(11, "noise").standard_normal(len(latent)) + 1.0
        with open(work / "noisy.csv", "w", encoding="utf-8") as fh:
            write_observations_csv(NoisyObservationSet(times=grid.times(), y_values=y), fh)
        for argv_ in readme_commands(work):
            code, wall = _timed(lambda: cli_run(argv_))
            label = " ".join(Path(a).name if a.startswith(str(work)) else a for a in argv_)
            report["cli"].append({"command": label, "exit_code": code, "wall_s": wall})
            print(f"{label[:60]:60s} exit {code} {wall:8.2f} s", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc, wall = _timed(lambda: subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True))
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    report["tier1"] = {"exit_code": proc.returncode, "wall_s": wall, "summary": tail}
    print(f"tier-1 tests {tail} {wall:8.2f} s", file=sys.stderr, flush=True)

    report["total_s"] = sum(r["wall_s"] for r in report["criteria"] + report["cli"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
