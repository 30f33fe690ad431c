"""driftlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload fit_exact --seed 1 --seconds 30 --trace 0

Runs from the root of a driftlab checkout and measures the driftlab in its
``src``.  An untraced run splits ``--seconds`` over several fresh worker
processes, one after another, each running its own slice of the inputs, so
that one process's memory layout does not set the result; their set-up
times (interpreter start, ``import driftlab``, input generation, one warm-up
op) give ``setup_s`` as a median.  A traced run is a single worker.

An op's time is its busy time: its wall time, but no more than the process
CPU time it used, so time the process spent descheduled (host steal, other
tenants on its cores) is not counted.  Every op time in the gated metrics
is also normalised for the host's speed: it is multiplied by
``REF_NOMINAL_S`` over the host reference timed next to it
(worker.host_reference), so it reads as the busy time on a host that runs
the reference in ``REF_NOMINAL_S``.  ``setup_s`` is the busy time of each
worker's set-up, not normalised: import time does not follow the
reference.  The raw wall-clock figures are printed too.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it repeat every metric with its unit, plus the digest of
the op outputs, the failure reasons and the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("fit_exact", "fit_simulated", "replicate_study")
SHARDS = 4        # worker processes per untraced run
DEADLINE_S = 175.0
# the unit of the normalised times: about the host reference's median time on
# the 2-vCPU Xeon (2.0 GHz) the baseline was recorded on
REF_NOMINAL_S = 1.8e-3


class BenchError(Exception):
    pass


def run_worker(args, shard: int, shards: int, deadline: float) -> tuple:
    """Run one worker to completion; returns (its set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / shards), "--trace", str(args.trace),
           "--shard", str(shard), "--shards", str(shards)] + ["--tiny"] * args.tiny
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        word, _, cpu = proc.stdout.readline().partition(" ")
        ready = word == "ready"
        setup_s = time.perf_counter() - start
        if ready:
            setup_s = min(setup_s, float(cpu))
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker passed the deadline and was stopped") from None
    if not ready or proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker shard {shard} failed (exit code {proc.returncode})")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def merge(results: list) -> dict:
    """Combine worker shards: op rows, verdicts per input, failures, digest."""
    attempted, failed = Counter(), Counter()
    keys, failures, ops = {}, [], []
    for res in results:
        ops += res["ops"]
        attempted.update(res["attempted"])
        failed.update(res["failed"])
        failures += res["failures"]
        for key, entry in res["keys"].items():
            if key in keys and keys[key][0] != entry[0]:
                failed[key.partition("[")[0]] += 1
                failures.append(f"{key}: output differs between worker processes")
            keys.setdefault(key, entry)
    for op_type, min_rate in results[0]["pool_min_rate"].items():
        oks = [e[2] for k, e in keys.items() if k.partition("[")[0] == op_type and e[2] is not None]
        rate = sum(oks) / len(oks) if oks else 0.0
        if rate < min_rate:
            failed[op_type] = attempted[op_type]
            failures.append(f"{op_type}: pool pass rate {rate:.3g} below {min_rate}")
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(f"{key}={keys[key][0]}\n".encode())
    return {"ops": ops, "attempted": sum(attempted.values()),
            "failed": min(sum(failed.values()), sum(attempted.values())),
            "failures": failures, "digest": digest.hexdigest()}


def end_to_end(ops: list, cycle: list, setups: list, results: list, failed: int,
               scale: bool = True) -> dict:
    """Throughput and CPU per op are those of the fixed cycle at each op
    type's median over the run, so a stall of the host that hits a few ops
    does not set them; the op-time percentiles pool every op of the run.
    An op's time is min(wall, CPU) (its busy time); with ``scale`` every op
    time is normalised by its host reference time, else it is wall-clock."""
    def timed(wall, cpu, ref):
        return (min(wall, cpu) * REF_NOMINAL_S / ref, cpu * REF_NOMINAL_S / ref) if scale \
            else (wall, cpu)

    by_type = defaultdict(list)
    times = []
    for op_type, _idx, wall, cpu, ref in ops:
        by_type[op_type].append(timed(wall, cpu, ref))
        times.append(by_type[op_type][-1][0])
    p90 = percentile(times, 0.9)
    mix = Counter(cycle)
    cycle_wall = sum(n * statistics.median(w for w, _ in by_type[t]) for t, n in mix.items())
    cycle_cpu = sum(n * statistics.median(c for _, c in by_type[t]) for t, n in mix.items())
    return {
        "ops_per_s": len(cycle) / cycle_wall,
        "op_s.p50": percentile(times, 0.5),
        "op_s.p90": p90,
        "op_s.p90_tail_samples": sum(t > p90 for t in times),
        "cpu_s_per_op": cycle_cpu / len(cycle),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        "ok_frac": 1.0 - failed / len(ops),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one input per op type and a reduced kernel pass (smoke tests)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "driftlab" / "__init__.py").is_file():
        print(f"perfbench: no driftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.perf_counter() + DEADLINE_S
    shards = 1 if args.trace else (2 if args.tiny else SHARDS)
    try:
        runs = [run_worker(args, k, shards, deadline) for k in range(shards)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = [s for s, _ in runs]
    results = [r for _, r in runs]
    merged = merge(results)
    (ROOT / ".perfbench" / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
     ).write_text("".join(json.dumps(row) + "\n" for row in merged["ops"]))

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        declared, values = spec["per_layer"], results[0]["per_layer"]
    else:
        declared = spec["end_to_end"]
        values = end_to_end(merged["ops"], results[0]["cycle"], setups, results,
                            merged["failed"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {merged['attempted']}  failed {merged['failed']}  workers {shards}")
    for key, value in results[0]["machine"].items():
        print(f"machine.{key} {value}")
    print(f"digest sha256 {merged['digest']}")
    for reason in merged["failures"][:20]:
        print(f"failure {reason}")
    if args.trace:
        print(f"trace spans {results[0]['trace_file']}")
    else:
        print(f"op_s.p90 samples beyond it: {values['op_s.p90_tail_samples']}")
        print(f"failed_frac {merged['failed'] / merged['attempted']:.6g} ratio")
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
        for res in results:
            print("setup phases " + "  ".join(f"{k} {v:.4f}" for k, v in res["setup_phases"].items()))
        refs = [r[4] for r in merged["ops"]]
        print(f"host reference median {statistics.median(refs):.6g} s, "
              f"nominal {REF_NOMINAL_S:g} s")
        raw = end_to_end(merged["ops"], results[0]["cycle"], setups, results,
                         merged["failed"], scale=False)
        print("wall clock, not busy time, not normalised: " + "  ".join(
            f"{name} {raw[name]:.6g}" for name in
            ("ops_per_s", "op_s.p50", "op_s.p90", "cpu_s_per_op")))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": merged["failed"] == 0, "attempted": merged["attempted"],
                      "failed": merged["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
