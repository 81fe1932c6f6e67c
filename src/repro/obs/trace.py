"""Lightweight span recorder for nested timing breakdowns.

Where the metrics registry answers "how many", spans answer "where did
the time go": a :class:`TraceRecorder` captures a tree of named,
wall-clock-timed intervals — ``span("search")`` nested inside
``span("frame")`` inside ``span("walkthrough")`` — each carrying
arbitrary attributes (cell id, I/O counts, simulated ms).

The default recorder is *disabled*: library code calls
:func:`span` unconditionally and pays only an enabled-flag check, so
long benchmark sessions do not accumulate span records.  The ``repro
profile`` command (and tests) enable a recorder via :func:`use_tracer`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Iterator, List, Optional

from repro.errors import ObservabilityError

#: What every span of a disabled recorder is: one shared null context.
_NULL_SPAN: ContextManager[None] = nullcontext()


@dataclass
class SpanRecord:
    """One completed (or in-flight) interval."""

    index: int
    parent: Optional[int]
    name: str
    depth: int
    #: Milliseconds since the recorder's epoch.
    start_ms: float
    duration_ms: float = 0.0
    #: Time spent in direct child spans (exclusive time = duration - child).
    child_ms: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def self_ms(self) -> float:
        return self.duration_ms - self.child_ms


class TraceRecorder:
    """Collects nested spans; disabled recorders cost one branch per span.

    Parameters
    ----------
    enabled:
        Whether :meth:`span` records anything.
    max_spans:
        Hard cap on stored records; spans beyond it still run (and still
        time their children correctly) but are not stored, and
        ``dropped`` counts them.
    """

    def __init__(self, *, enabled: bool = True,
                 max_spans: int = 1_000_000) -> None:
        if max_spans < 1:
            raise ObservabilityError(
                f"max_spans must be >= 1, got {max_spans}")
        self.enabled = enabled
        self.max_spans = max_spans
        self.records: List[SpanRecord] = []
        self.dropped = 0
        self._stack: List[int] = []
        self._epoch = time.perf_counter()

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._epoch) * 1000.0

    def span(self, name: str,
             **attrs: object) -> ContextManager[Optional[SpanRecord]]:
        """Record a named interval; yields the record (or ``None`` when
        disabled or over the cap) so callers can attach attributes.  A
        disabled recorder hands out one shared null context."""
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name, attrs)

    @contextmanager
    def _span(self, name: str, attrs: Dict[str, object]
              ) -> Iterator[Optional[SpanRecord]]:
        if len(self.records) >= self.max_spans:
            self.dropped += 1
            start = self._now_ms()
            try:
                yield None
            finally:
                # Parents still owe their stack entry the elapsed time.
                if self._stack:
                    self.records[self._stack[-1]].child_ms += \
                        self._now_ms() - start
            return
        record = SpanRecord(
            index=len(self.records),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            depth=len(self._stack),
            start_ms=self._now_ms(),
            attrs=attrs,
        )
        self.records.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.duration_ms = self._now_ms() - record.start_ms
            if record.parent is not None:
                self.records[record.parent].child_ms += record.duration_ms

    # -- reading -----------------------------------------------------------

    def by_name(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def total_ms(self, name: str) -> float:
        return sum(r.duration_ms for r in self.by_name(name))

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: count, total/self wall ms, mean, max."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            agg = out.setdefault(record.name, {
                "count": 0, "total_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0})
            agg["count"] += 1
            agg["total_ms"] += record.duration_ms
            agg["self_ms"] += record.self_ms
            agg["max_ms"] = max(agg["max_ms"], record.duration_ms)
        for agg in out.values():
            agg["mean_ms"] = agg["total_ms"] / agg["count"]
        return out

    def clear(self) -> None:
        if self._stack:
            raise ObservabilityError("cannot clear: spans still open")
        self.records.clear()
        self.dropped = 0
        self._epoch = time.perf_counter()

    def __repr__(self) -> str:
        return (f"TraceRecorder(enabled={self.enabled}, "
                f"spans={len(self.records)}, dropped={self.dropped})")


_default_tracer = TraceRecorder(enabled=False)


def get_tracer() -> TraceRecorder:
    """The process-wide recorder library spans bind to (disabled unless
    a profiling run enabled one)."""
    return _default_tracer


def set_tracer(tracer: TraceRecorder) -> TraceRecorder:
    """Swap the default recorder; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def span(name: str,
         **attrs: object) -> ContextManager[Optional[SpanRecord]]:
    """Record a span on the default recorder (no-op when disabled)."""
    tracer = _default_tracer
    return tracer._span(name, attrs) if tracer.enabled else _NULL_SPAN


@contextmanager
def use_tracer(tracer: Optional[TraceRecorder] = None
               ) -> Iterator[TraceRecorder]:
    """Scoped :func:`set_tracer`; yields the active (enabled) recorder."""
    tracer = tracer if tracer is not None else TraceRecorder(enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
