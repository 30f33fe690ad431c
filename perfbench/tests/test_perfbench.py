"""The benchmark's own tests, on tiny runs (one input per op type).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import REF_NOMINAL_S, end_to_end  # noqa: E402
from spans import Span, Tracer, self_times, span_stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that may read 0 on every tiny run while nothing fails
ZERO_TODAY = {"likelihood.mle_fit.stderr_missing", "fokker_planck.boundary_warnings",
              "estimating.ee_solve.divergent"}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        report[key] = value
    return report, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return {w: parse(run_bench(w, 3, 0)) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: parse(run_bench(w, 3, 1)) for w in WORKLOADS}


def _check_metrics(report, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        value, unit = report[m["name"]].split()
        assert unit == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(untraced, workload):
    report, result = untraced[workload]
    _check_metrics(report, result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert "failed_frac" in report and "digest" in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(traced, workload):
    report, result = traced[workload]
    _check_metrics(report, result, SPEC["per_layer"])


def test_every_per_layer_metric_is_exercised(traced):
    """A name that reads 0 on every workload is a metric nothing measures."""
    for m in SPEC["per_layer"]:
        if m["name"] not in ZERO_TODAY:
            assert any(res["metrics"][m["name"]]["value"] for _, res in traced.values()), m


def _load_spans(report) -> list:
    path = ROOT / report["trace"].split()[-1]
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [Span(r["id"], r["name"], r["start"], r["end"], r["parent"], r["op"], r["thread"])
            for r in rows]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_op_wall_time(traced, workload):
    spans = _load_spans(traced[workload][0])
    own = self_times(spans)
    roots = [s for s in spans if s.name.startswith("op.")]
    assert roots
    checked = 0
    for root in roots:
        members = [s for s in spans if s.op_id == root.op_id]
        if len({s.thread_id for s in members}) > 1:
            continue  # replicates overlap on pool threads; their self times overlap too
        assert sum(own[s.span_id] for s in members) == pytest.approx(root.duration, abs=1e-9)
        checked += 1
    assert checked


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(untraced, traced, workload):
    digest = untraced[workload][0]["digest"]
    again, _ = parse(run_bench(workload, 3, 0))
    assert again["digest"] == digest
    assert traced[workload][0]["digest"] == digest


def test_another_seed_changes_the_digest(untraced):
    other, _ = parse(run_bench("fit_simulated", 4, 0))
    assert other["digest"] != untraced["fit_simulated"][0]["digest"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [Span(1, "batch", 0.0, 10.0, None, 1, 1),
             Span(2, "rep", 1.0, 6.0, 1, 1, 2),
             Span(3, "rep", 4.0, 8.0, 1, 1, 3),
             Span(4, "inner", 5.0, 7.0, 3, 1, 3)]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 5.0, 3: 2.0, 4: 2.0}
    stats = span_stats(spans)
    assert stats["rep"] == {"busy_s": 9.0, "self_s": 7.0, "calls": 2}


def test_fails_without_driftlab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_op_times_are_busy_times_normalised_by_the_host_reference():
    # [op type, input index, wall s, CPU s, host reference s]; op b ran on two
    # threads (CPU above wall), the others were partly descheduled
    ops = [["a", 0, 0.2, 0.1, 2 * REF_NOMINAL_S], ["a", 1, 0.4, 0.3, 2 * REF_NOMINAL_S],
           ["b", 0, 0.6, 0.9, REF_NOMINAL_S]]
    args = (ops, ["a", "b"], [1.0, 3.0], [{"peak_rss_mb": 80.0}], 0)
    raw, norm = end_to_end(*args, scale=False), end_to_end(*args)
    assert raw["ops_per_s"] == pytest.approx(2 / (0.3 + 0.6))
    assert norm["ops_per_s"] == pytest.approx(2 / (0.1 + 0.6))
    assert norm["cpu_s_per_op"] == pytest.approx((0.1 + 0.9) / 2)
    assert norm["op_s.p50"] == pytest.approx(0.15)
    assert norm["setup_s"] == raw["setup_s"] == 2.0  # set-up is not normalised


def test_bridge_check_allows_for_the_proposal_gap_on_a_tiny_sample_sigma(tmp_path):
    """fit_simulated seed 3, bridge input 13: three pairs whose closed-form
    sigma came out at 0.0043 (true 0.2); the bridge MLE reads 0.0061 there,
    which a plain 10% bound on sigma failed."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.build("fit_simulated", 3, str(tmp_path))
    op, inp = wl.ops["bridge"], wl.inputs["bridge"][13]
    summary = op.summarize(inp, op.run(inp, Tracer(enabled=False)))
    assert summary["theta"][1] < 0.01
    assert op.check(inp, summary) is None
