"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent, thread, attrs).  Its parent is the
innermost span still open on the same thread; a span opened on a thread
with nothing open (a sweep pool worker) is attributed to the innermost span
open on the thread that created the tracer, which is the one blocked waiting
for the pool.  Self time is the span's duration minus the part of its
interval covered by its children; children on different threads overlap,
so the covered part is the length of the union of their intervals.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; thread-safe for spans opened in pools."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = defaultdict(list)
        self._home = threading.get_ident()

    def _parent(self, tid: int) -> Span | None:
        stack = self._stacks.get(tid) or self._stacks.get(self._home)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Open a span; the body may add attrs through the yielded span."""
        tid = threading.get_ident()
        with self._lock:
            parent = self._parent(tid)
            sp = Span(len(self.spans), name, parent.ident if parent else None, tid,
                      self.clock(), attrs=dict(attrs))
            self.spans.append(sp)
            self._stacks[tid].append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            with self._lock:
                self._stacks[tid].pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def child_index(self) -> dict[int, list[Span]]:
        index: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                index[s.parent].append(s)
        return index

    def self_time(self, sp: Span, index: dict[int, list[Span]] | None = None) -> float:
        """Duration minus the union of the child intervals clipped to sp."""
        kids = (index if index is not None else self.child_index()).get(sp.ident, [])
        intervals = [(max(c.start, sp.start), min(c.end, sp.end)) for c in kids]
        return sp.duration - union_length(intervals)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
