"""Acceptance suite: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with pytest -s or on failure).

The core criteria (c01-c09) run once per session and are checked against
tests/golden/acceptance.json, written by scripts/golden_acceptance.py; a change
that moves a promised number regenerates that file in the same diff."""

import hashlib
import json
from pathlib import Path

import pytest

from driftlab import acceptance

GOLDEN = Path(__file__).resolve().parent / "golden" / "acceptance.json"


@pytest.fixture(scope="session")
def core():
    return acceptance.run_core()


def _check(result):
    print(acceptance.format_result(result))
    assert result.passed, acceptance.format_result(result)


def _criterion(core, prefix):
    return next(r for r in core if r.name.startswith(prefix))


def test_criterion_01_variance_inflation(core):
    _check(_criterion(core, "c01_"))


def test_criterion_02_pf_vs_kalman(core):
    _check(_criterion(core, "c02_"))


def test_criterion_03_fokker_planck(core):
    _check(_criterion(core, "c03_"))


def test_criterion_04_bridge_likelihood(core):
    _check(_criterion(core, "c04_"))


def test_criterion_05_euler_strong_order(core):
    _check(_criterion(core, "c05_"))


def test_criterion_06_collocation_recovery(core):
    _check(_criterion(core, "c06_"))


def test_criterion_07_mle_calibration(core):
    _check(_criterion(core, "c07_"))


def test_criterion_08_adequacy_power(core):
    _check(_criterion(core, "c08_"))


def test_criterion_09_robust_observation(core):
    _check(_criterion(core, "c09_"))


def test_criterion_10_determinism():
    _check(acceptance.criterion_determinism())


def _moved(old, new, key):
    """Each key whose value differs: floats within 1e-12 relative, all else exactly."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [m for k in sorted(old.keys() | new.keys())
                for m in _moved(old.get(k, "<absent>"), new.get(k, "<absent>"), f"{key}.{k}")]
    if isinstance(old, float) and isinstance(new, float):
        same = old == new or abs(new - old) <= 1e-12 * max(abs(old), abs(new))
    else:
        same = type(old) is type(new) and old == new
    return [] if same else [f"{key}: {old!r} -> {new!r}"]


def test_core_criteria_match_the_golden_record(core):
    blob = "".join(r.to_json() for r in core)
    sha256 = hashlib.sha256(blob.encode()).hexdigest()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    print(f"acceptance core sha256 {sha256} (golden {golden['sha256']})")
    fresh = {r.name: json.loads(r.to_json()) for r in core}
    moved = _moved(golden["criteria"], fresh, "criteria")
    assert not moved, (f"sha256 {sha256}, golden {golden['sha256']}; regenerate with "
                       "scripts/golden_acceptance.py and declare:\n" + "\n".join(moved))
