"""In-memory spans and self-time arithmetic for the traced benchmark run.

A span records a name, start, end, parent, thread id and operation id, plus
work counts taken at the same boundary.  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus the
part of that interval its child spans cover, so overlapping children (worker
threads of one parent) are counted once.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of one process.

    A span opened on a thread with no open span of its own is parented to
    the innermost open span of the thread that created the tracer: the
    worker threads of a thread pool then hang under the call that started
    the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()

    def _stack(self, tid: int) -> list[Span]:
        with self._lock:
            return self._stacks.setdefault(tid, [])

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        stack = self._stack(tid)
        if stack:
            parent = stack[-1]
        else:
            home = self._stack(self._home)
            parent = home[-1] if home else None
        with self._lock:
            sid = next(self._ids)
        s = Span(sid, name, time.perf_counter(), 0.0,
                 parent.id if parent else None, tid, parent.op if parent else sid)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` adds work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, kwargs, result))
            return result

        return traced

    def as_document(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return kids


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = _children(spans)
    return {s.id: s.duration - covered(kids[s.id]) for s in spans}


def parallel_excess(spans) -> float:
    """Time children of one parent overlap each other, summed over parents.

    Self times summed over a tree equal the root's duration plus this
    excess, so a single-threaded tree has none.
    """
    return sum(sum(b - a for a, b in iv) - covered(iv) for iv in _children(spans).values())
