"""In-memory spans around calls into the library, recorded from the benchmark's side.

Spans are aggregated per call path: every distinct (parent span, name) pair
is one record holding the first start, the last end, the number of calls,
the summed busy time, each call's duration and free-form counts.  That keeps
memory bounded when a hot loop makes a call per enumerated route.  A span's
self time is its busy time minus the busy time of its child spans.

A disabled tracer runs the calls and records nothing, so the untraced run
pays one extra Python call per traced boundary.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "calls", "busy", "durations", "counts")

    def __init__(self, sid: int, name: str, parent: int | None):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start: float | None = None
        self.end: float | None = None
        self.calls = 0
        self.busy = 0.0
        self.durations = array("d")
        self.counts: dict[str, int] = {}

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class _NullSpan:
    """Stands in for a span when tracing is off; counts go nowhere."""

    def count(self, key: str, value: int = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._index: dict[tuple[int | None, str], Span] = {}
        self._stack: list[int] = []
        self.t0 = perf_counter()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = self._index.get((parent, name))
        if span is None:
            span = Span(len(self.spans), name, parent)
            self.spans.append(span)
            self._index[(parent, name)] = span
        self._stack.append(span.id)
        return span

    def _close(self, span: Span, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        if span.start is None:
            span.start = start
        span.end = end
        span.calls += 1
        span.busy += end - start
        span.durations.append(end - start)

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one call of ``name``; yields the span for counts."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = self._open(name)
        start = perf_counter()
        try:
            yield span
        finally:
            self._close(span, start)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, start)

    # -- reading the record -------------------------------------------------

    def _self_by_id(self) -> list[float]:
        """Each span's busy time minus the busy time of its direct children."""
        own = [span.busy for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.busy
        return own

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every call path with that name."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self._self_by_id()):
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def totals(self, name: str) -> tuple[int, float, dict[str, int]]:
        """(calls, busy seconds, summed counts) over every span named ``name``."""
        calls, busy, counts = 0, 0.0, {}
        for span in self.spans:
            if span.name == name:
                calls += span.calls
                busy += span.busy
                for key, value in span.counts.items():
                    counts[key] = counts.get(key, 0) + value
        return calls, busy, counts

    def durations(self, name: str) -> list[float]:
        out: list[float] = []
        for span in self.spans:
            if span.name == name:
                out.extend(span.durations)
        return out

    def write(self, path: Path) -> None:
        """Write every span, with times relative to the tracer's creation."""
        records = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start_s": None if s.start is None else s.start - self.t0,
                "end_s": None if s.end is None else s.end - self.t0,
                "calls": s.calls,
                "busy_s": s.busy,
                "self_s": own,
                "counts": s.counts,
            }
            for s, own in zip(self.spans, self._self_by_id())
        ]
        path.write_text(json.dumps({"spans": records, "self_s": self.self_times()}, indent=1) + "\n")
