"""In-memory spans around the benchmark's calls into driftlab.

A disabled tracer forwards each call unchanged, so the untraced runs that
give the end-to-end numbers pay one extra Python call per driftlab call.
An enabled tracer records one span per call as (id, name, start, end,
parent id, op id, thread id) and keeps them in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    thread_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # per-layer counts read from results
        self.op_id = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record a span; ``parent`` defaults to the innermost open span of
        this thread.  Yields the span id, which other threads may pass as
        ``parent`` for work they do on this span's behalf."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, self.op_id, threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op_id, "thread": s.thread_id,
                }) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.span_id: s.duration - _covered(children[s.span_id], s.start, s.end)
            for s in spans}


def span_stats(spans) -> dict:
    """name -> {"busy_s", "self_s", "calls"} summed over the spans of that name."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
    for s in spans:
        row = out[s.name]
        row["busy_s"] += s.duration
        row["self_s"] += own[s.span_id]
        row["calls"] += 1
    return dict(out)
