"""Smoke tests of the experiment scripts: each one imports what it uses from
driftlab and parses its arguments, so a renamed or removed public name fails
here instead of breaking a script silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    proc = _run(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_lambda_sweep_runs():
    proc = _run(ROOT / "scripts" / "lambda_sweep.py", "--lambdas", "1", "--n-obs", "10")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and lines[0].split()[0] == "lambda"
