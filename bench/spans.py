"""In-memory spans and their self times.

A span is one timed call: its name, start and end (``perf_counter``
seconds), the id of the span open when it started, and the item it belongs
to.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, item: int) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append(Span(sid, name, start, end, parent, item))

    def call(self, name: str, item: int, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span."""
        with self.span(name, item):
            return fn(*args, **kwargs)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out
