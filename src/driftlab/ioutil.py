"""Result output: the one JSON format of every result file, written
atomically (temp file in the target directory, then rename)."""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` atomically as key-sorted, 2-space-indented JSON."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def seed_key(seed):
    """The full stream key of ``seed`` in JSON form: an int, or a list for a
    tuple key (and for a list key read back from JSON)."""
    if isinstance(seed, (tuple, list)):
        return [p if isinstance(p, str) else int(p) for p in seed]
    return int(seed)
