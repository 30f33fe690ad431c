"""Record a baseline: repeated benchmark runs, summarized with their spread.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/BENCH_new.json

For every workload of BENCHMARK.json it runs ``run.py`` untraced once per
seed, then ``REPEATS`` more times on the first seed, then once traced on the
first seed; last it adds the one-shot suite report, including the Tier-1
test run.  For every end-to-end metric it writes, over the seeds and over
the same-seed repeats apart, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, and prints both spreads next to a third of the metric's bound.  The
seed spread holds input and host noise, the same-seed spread host noise
alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REPEATS = 5   # extra untraced runs on the first seed


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        report[key] = value
    failures = [line.partition(" ")[2] for line in lines[:-1] if line.startswith("failure ")]
    return {"seed": seed, "wall_s": wall, "report": report, "failures": failures,
            "result": json.loads(lines[-1])}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0}


def run_rows(runs: list) -> list:
    return [{"seed": r["seed"], "wall_s": r["wall_s"], "digest": r["report"].get("digest", ""),
             "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
             "failures": r["failures"],
             "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
            for r in runs]


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": seconds, "workloads": {}}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        repeats = runs[:1] + [run_once(workload, seeds[0], seconds, 0) for _ in range(REPEATS)]
        summary, same_seed = {}, {}
        for name, bound in bounds.items():
            summary[name] = dict(spread([r["result"]["metrics"][name]["value"] for r in runs]),
                                 bound=bound)
            same_seed[name] = spread([r["result"]["metrics"][name]["value"] for r in repeats])
            print(f"{workload:16s} {name:14s} median {summary[name]['median']:.6g}  "
                  f"spread {summary[name]['iqr_over_median']:.4f}  "
                  f"same-seed {same_seed[name]['iqr_over_median']:.4f}  "
                  f"bound/3 {bound / 3:.4f}", flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        record["machine"] = {k[len("machine."):]: v for k, v in runs[0]["report"].items()
                             if k.startswith("machine.")}
        record["workloads"][workload] = {
            "end_to_end": summary,
            "same_seed": same_seed,
            "runs": run_rows(runs),
            "same_seed_runs": run_rows(repeats[1:]),
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_run": {"seed": seeds[0], "wall_s": traced["wall_s"],
                           "digest": traced["report"].get("digest", "")},
        }
        out.write_text(json.dumps(record, indent=2) + "\n")
    proc = subprocess.run([sys.executable, str(HERE / "suite.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"suite report failed:\n{proc.stderr}")
    record["suite"] = json.loads(proc.stdout.strip().splitlines()[-1])
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
