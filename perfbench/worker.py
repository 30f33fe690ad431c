"""One benchmark process: set up a workload, run one shard of it, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--shard K --shards M] [--tiny]

Set-up is importing driftlab from this checkout's ``src``, generating the
workload's inputs from the seed and running one untimed warm-up op; the
worker then prints ``ready`` and its CPU seconds so far.  It then runs
whole op cycles until ``--seconds`` have passed, it has run its share of
the minimum op count, and every input of its shard (an equal slice of each
op type's pool) has run once; other inputs of the pool follow in order.  With ``--trace 1`` the
time is split between an untraced and a traced phase (their throughput
ratio is the tracing overhead), followed by the kernel pass.  The last line
is one JSON object; run.py merges the shards into the benchmark's result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
SPAN_STATS = ("busy_s", "self_s", "calls")


def host_reference() -> float:
    """Busy seconds of a fixed pure-Python loop plus a fixed numpy loop, mean of two.

    It runs between every two ops, so each op is timed between two of these.
    On a shared host the other tenants slow everything down by up to 2x,
    drifting over seconds to minutes; the same loops, run next to the op,
    slow with it, and run.py divides them out.  The numpy loop is shaped
    like a particle filter step (draws, exp, cumsum, searchsorted on 500
    values), the work of the shortest ops; a tiny elementwise loop tracked
    those ops less well.  Like an op, each trial is timed as min(wall,
    process CPU), so time spent descheduled is not counted; the mean, not
    the best, of the trials keeps the slowdown that caches and shared cores
    cause.  It calls nothing in driftlab, so a change to the program cannot
    move it.
    """
    import numpy as np

    total = 0.0
    for _ in range(2):
        cpu0, t0 = time.process_time(), time.perf_counter()
        s = 0.0
        for i in range(3000):
            s += i * 0.5
        rng = np.random.default_rng(11)
        x = np.zeros(500)
        for t in range(20):
            x = x + 0.3 * rng.standard_normal(500)
            logw = -0.5 * (x - 0.1 * t) ** 2
            w = np.exp(logw - logw.max())
            w /= w.sum()
            idx = np.searchsorted(np.cumsum(w), (rng.random() + np.arange(500)) / 500)
            x = x[np.minimum(idx, 499)]
        total += min(time.perf_counter() - t0, time.process_time() - cpu0)
    return total / 2


def canonical(obj) -> bytes:
    """Deterministic bytes of a summary; floats by their exact hex form."""
    import numpy as np

    def conv(v):
        if isinstance(v, dict):
            return {str(k): conv(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [conv(x) for x in v]
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        if isinstance(v, (float, np.floating)):
            return float(v).hex()
        return v

    return json.dumps(conv(obj), sort_keys=True).encode()


class RunState:
    """This shard's op outputs and check verdicts, keyed by (op type, pool index).

    The first output for a key is checked; a later op on the same input must
    reproduce it byte for byte, and inherits its verdict.
    """

    def __init__(self, workload, shard: int, shards: int):
        self.wl = workload
        self.start, self.share = {}, {}
        for t, pool in workload.inputs.items():
            lo, hi = shard * len(pool) // shards, (shard + 1) * len(pool) // shards
            self.start[t], self.share[t] = lo, hi - lo
        self.next = Counter()
        self.keys: dict = {}   # "type[idx]" -> [output sha256, failure reason, pool_ok]
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.failures: list = []

    def min_cycles(self, min_ops: int) -> int:
        cycle = self.wl.cycle
        return max([-(-min_ops // len(cycle))]
                   + [-(-self.share[t] // cycle.count(t)) for t in self.wl.ops])

    def take(self, op_type: str) -> int:
        idx = (self.start[op_type] + self.next[op_type]) % len(self.wl.inputs[op_type])
        self.next[op_type] += 1
        return idx

    def record(self, op_type, idx, raw, error, tracer, counted=True) -> None:
        op, inp, key = self.wl.ops[op_type], self.wl.inputs[op_type][idx], f"{op_type}[{idx}]"
        summary, reason = None, None
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            try:
                summary = op.summarize(inp, raw)
            except Exception as exc:  # a malformed output fails the op, not the run
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        sha = hashlib.sha256(canonical(summary if reason is None else {"error": reason}))
        sha = sha.hexdigest()
        if key not in self.keys:
            pool_ok = None
            if reason is None:
                try:
                    reason = op.check(inp, summary)
                    if op.pool_ok is not None:
                        pool_ok = bool(op.pool_ok(summary))
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            self.keys[key] = [sha, reason, pool_ok]
        elif sha != self.keys[key][0]:
            reason = "output differs from an earlier op on the same input"
        else:
            reason = self.keys[key][1]
        if tracer.enabled and summary is not None and op.tally is not None:
            op.tally(summary, tracer.counts)
        if counted:
            self.attempted[op_type] += 1
            if reason is not None:
                self.failed[op_type] += 1
                self.failures.append(f"{key}: {reason}")


def run_op(wl, state, tracer, op_type, idx, counted=True):
    """One op on one pooled input; returns (wall seconds, CPU seconds)."""
    tracer.op_id += 1
    raw, error = None, None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with tracer.span(f"op.{op_type}"):
            raw = wl.ops[op_type].run(wl.inputs[op_type][idx], tracer)
    except Exception as exc:  # a failed op is counted, and the run goes on
        error = exc
    t1, cpu1 = time.perf_counter(), time.process_time()
    state.record(op_type, idx, raw, error, tracer, counted)
    return t1 - t0, cpu1 - cpu0


def run_phase(wl, state, tracer, seconds: float, min_cycles: int) -> list:
    """Whole cycles until ``seconds`` have passed and ``min_cycles`` have run.

    Returns one [op type, input index, wall s, CPU s, reference s] row per
    op; the reference time is the mean of the host reference before and
    after the op."""
    rows = []
    start, cycles = time.perf_counter(), 0
    ref = host_reference()
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        for op_type in wl.cycle:
            idx = state.take(op_type)
            wall, cpu = run_op(wl, state, tracer, op_type, idx)
            ref_after = host_reference()
            rows.append([op_type, idx, wall, cpu, (ref + ref_after) / 2])
            ref = ref_after
        cycles += 1
    return rows


def per_layer(names, tracer, kernels: dict, overhead_frac: float, workers: int) -> dict:
    """The declared per-layer metrics from spans, result counts and kernels.

    A span metric of a layer this workload never calls reads 0, as does a
    count never tallied; those are the no-change rows of the workload.
    """
    from spans import span_stats

    stats = span_stats(tracer.spans)
    counts = tracer.counts
    values = {f"{name}.{k}": v for name, row in stats.items() for k, v in row.items()}
    rep_busy = stats.get("parallel.replicate", {}).get("busy_s", 0.0)
    map_busy = stats.get("parallel.map_replicates", {}).get("busy_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    values.update(kernels)
    values.update({
        "parallel.map_replicates.speedup": ratio(rep_busy, map_busy),
        "parallel.map_replicates.wait_s": counts["parallel.map_replicates.capacity_s"] - rep_busy,
        "parallel.workers": workers,
        "adequacy.flag_rate": ratio(counts["adequacy.flagged"], counts["adequacy.trials"]),
        "particle.ess_min_frac": ratio(counts["particle.ess_min_frac_sum"], counts["particle.runs"]),
        "particle.resample_frac": ratio(counts["particle.resamples"], counts["particle.steps"]),
        "trace.overhead_frac": overhead_frac,
    })
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.rpartition(".")[2] in SPAN_STATS:
            out[name] = 0
        else:
            out[name] = counts[name]
    return out


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" where it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:  # no git on the machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_record() -> dict:
    import numpy
    import scipy
    from driftlab.parallel import thread_limit

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "DRIFTLAB_THREADS": os.environ.get("DRIFTLAB_THREADS", "unset"),
        "workers": thread_limit(),
        "commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shard", type=int, default=0)
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import driftlab

    phases = {"import_s": time.perf_counter() - T_START}

    if not Path(driftlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"driftlab imported from {driftlab.__file__}, not this checkout", file=sys.stderr)
        return 2
    import kernels
    import workloads
    from spans import Tracer

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, str(workdir), tiny=args.tiny)
        phases["inputs_s"] = time.perf_counter() - T_START - sum(phases.values())
        state = RunState(wl, args.shard, args.shards)
        tracer = Tracer(enabled=False)
        first = wl.cycle[0]
        run_op(wl, state, tracer, first, state.start[first], counted=False)  # warm-up
        phases["warmup_s"] = time.perf_counter() - T_START - sum(phases.values())
        print(f"ready {time.process_time()!r}", flush=True)

        min_cycles = state.min_cycles(-(-wl.min_ops // args.shards))
        seconds = args.seconds / 2 if args.trace else args.seconds
        ops = run_phase(wl, state, tracer, seconds, min_cycles)
        result = {"ops": ops, "cycle": list(wl.cycle)}
        if args.trace:
            tracer.enabled = True
            traced = run_phase(wl, state, tracer, seconds, min_cycles)
            # per-op busy time over reference time, so host drift between the phases cancels
            def rel(rows):
                return sum(min(r[2], r[3]) / r[4] for r in rows) / len(rows)

            overhead = rel(traced) / rel(ops) - 1.0
            trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(trace_file)
            kernel_values = kernels.kernel_pass(args.seed, tiny=args.tiny)
            with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            result["per_layer"] = per_layer(names, tracer, kernel_values, overhead,
                                            machine_record()["workers"])
            result["trace_file"] = str(trace_file.relative_to(ROOT))
            result["traced_ops"] = len(traced)
        result.update({
            "keys": state.keys,
            "attempted": dict(state.attempted),
            "failed": dict(state.failed),
            "failures": state.failures[:10],
            "pool_min_rate": {t: op.pool_min_rate for t, op in wl.ops.items()
                              if op.pool_ok is not None},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": machine_record(),
            "setup_phases": phases,
        })
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
