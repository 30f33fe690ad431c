#!/usr/bin/env python3
"""Write the golden record of the promised numbers.

Runs the core acceptance criteria (c01-c09, ``acceptance.run_core()``) at
their default seed and writes each criterion's ``passed`` and ``details``,
with the sha256 of the concatenated CriterionResult.to_json() they came from,
to tests/golden/acceptance.json.  Then runs README's ``driftlab simulate`` and
``driftlab fit`` lines through ``cli_run`` in a temporary directory and copies
the files they write to readme/ beside it (tests/golden/readme/ by default).
tests/test_acceptance.py and tests/test_config_cli.py compare fresh runs with
these files, so a change that moves a promised number regenerates them in the
same diff.
"""

import argparse
import hashlib
import json
import os
import shlex
import tempfile
from pathlib import Path

from driftlab import acceptance
from driftlab.cli import cli_run

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "tests" / "golden" / "acceptance.json"


def readme_commands(*commands):
    """The argument lists of README's ``driftlab <command>`` lines for ``commands``,
    continuation lines joined, in README's order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = text.replace("\\\n", " ").splitlines()
    return [words[1:] for words in (shlex.split(line) for line in lines
                                     if line.startswith("driftlab "))
            if words[1] in commands]


def readme_outputs(workdir):
    """Run README's simulate and fit lines in ``workdir``; returns {file name: bytes}
    of the files they write."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_commands("simulate", "fit"):
            if cli_run(argv) != 0:
                raise RuntimeError(f"README command failed: driftlab {shlex.join(argv)}")
    finally:
        os.chdir(cwd)
    return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=str, default=str(DEFAULT_OUT),
                    help="JSON file to write, README outputs in readme/ beside it "
                         "(default: tests/golden/acceptance.json)")
    args = ap.parse_args()

    results = acceptance.run_core()
    blob = "".join(r.to_json() for r in results)
    record = {"sha256": hashlib.sha256(blob.encode()).hexdigest(),
              "criteria": {r.name: json.loads(r.to_json()) for r in results}}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}: sha256 {record['sha256']}")

    with tempfile.TemporaryDirectory() as work:
        outputs = readme_outputs(work)
    readme_dir = out.parent / "readme"
    readme_dir.mkdir(exist_ok=True)
    for name, data in outputs.items():
        (readme_dir / name).write_bytes(data)
    print(f"wrote {', '.join(outputs)} to {readme_dir}")


if __name__ == "__main__":
    main()
