#!/usr/bin/env python3
"""Write the golden record of the acceptance numbers.

Runs the core acceptance criteria (c01-c09, ``acceptance.run_core()``) at
their default seed and writes each criterion's ``passed`` and ``details``,
with the sha256 of the concatenated CriterionResult.to_json() they came from.
tests/test_acceptance.py compares a fresh run with this file, so a change that
moves a promised number regenerates it in the same diff.
"""

import argparse
import hashlib
import json
from pathlib import Path

from driftlab import acceptance

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "tests" / "golden" / "acceptance.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=str, default=str(DEFAULT_OUT),
                    help="JSON file to write (default: tests/golden/acceptance.json)")
    args = ap.parse_args()

    results = acceptance.run_core()
    blob = "".join(r.to_json() for r in results)
    record = {"sha256": hashlib.sha256(blob.encode()).hexdigest(),
              "criteria": {r.name: json.loads(r.to_json()) for r in results}}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}: sha256 {record['sha256']}")


if __name__ == "__main__":
    main()
