"""Replicate-loop parallelism, opt-in through the DRIFTLAB_THREADS environment
variable.

Each replicate derives its random stream from (seed, replicate index), so the
result of mapping over replicates is the same for any worker count.  Without
DRIFTLAB_THREADS the loop runs serially in the caller's thread: the replicate
work holds the GIL, so on a few CPUs a pool adds overhead and no speed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_limit() -> int:
    raw = os.environ.get("DRIFTLAB_THREADS") or "1"
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"DRIFTLAB_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def map_replicates(fn, n: int) -> list:
    """[fn(0), ..., fn(n-1)], evaluated with at most thread_limit() workers."""
    workers = min(thread_limit(), max(n, 1))
    if workers == 1 or n <= 1:
        return [fn(r) for r in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))
