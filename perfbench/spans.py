"""In-memory spans around calls into the analyzer's modules.

A span records its name, start, end, the span that was open when it
began (its parent) and the id of the run it belongs to.  Self time is a
span's duration minus the part of it that its children cover.  The
analyzer is single-threaded, so no span ever waits on another: every
layer's waiting time is zero.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``span`` is used as a ``with`` block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals,
        clipped to the span."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(index, ()),
                                key=lambda c: c.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.duration - covered)
        return out

    def totals(self) -> dict[str, tuple[float, float]]:
        """Name -> (summed duration, summed self time)."""
        out: dict[str, tuple[float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            total, self_total = out.get(span.name, (0.0, 0.0))
            out[span.name] = (total + span.duration, self_total + own)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run": s.run, "self": own}
            for s, own in zip(self.spans, self.self_times())
        ]


class NullTracer:
    """Same interface, records nothing: the untraced pass."""

    run = 0

    def span(self, name: str):
        return contextlib.nullcontext()


def span_cost(count: int = 20000, repeats: int = 5) -> float:
    """Seconds one empty span costs over an untraced block: the median
    over ``repeats`` of (``count`` traced - ``count`` untraced) / count."""
    def loop(tracer) -> float:
        start = time.perf_counter()
        for _ in range(count):
            with tracer.span("span"):
                pass
        return time.perf_counter() - start

    return statistics.median((loop(Tracer()) - loop(NullTracer())) / count
                             for _ in range(repeats))
