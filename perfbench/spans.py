"""In-memory spans around the benchmark's calls into hrfrontier.

A span records a name, start and end (``perf_counter`` seconds), the index of
the span that encloses it, the job it belongs to, and optional work counts.
Spans are kept in a list and written out once, when the run ends.  The
benchmark is one thread with one closed-loop client, so no call ever waits
for another: a span's time is all busy time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

#: Module layers of hrfrontier whose exceptions are counted as ``<layer>.errors``.
LAYERS = (
    "cli",
    "market",
    "frontier",
    "kernel",
    "moments",
    "monotone",
    "multiperiod",
    "benchmark",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    counts: dict = field(default_factory=dict)
    error: str | None = None


class _Open:
    """Context manager that closes one span and counts a raised exception."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> Span:
        return self._tracer.spans[self._index]

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        span = tracer.spans[self._index]
        span.end = time.perf_counter()
        tracer._stack.pop()
        if exc_type is not None:
            span.error = exc_type.__name__
            tracer.errors[span.name.split(".", 1)[0]] += 1


class Tracer:
    """Records spans; ``span()`` nests under whichever span is open."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.job: int | None = None

    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, job=self.job, counts=counts)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Open(self, index)

    def write(self, handle, source: str) -> None:
        """One JSON line per span; ``parent`` indexes this tracer's spans."""
        for span in self.spans:
            handle.write(
                json.dumps(
                    {
                        "source": source,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "job": span.job,
                        "counts": span.counts,
                        "error": span.error,
                    }
                )
                + "\n"
            )


class NullTracer:
    """Tracing off: ``span()`` costs one call and records nothing."""

    enabled = False
    job = None
    _null = nullcontext()

    def span(self, name: str, **counts):
        return self._null


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: calls, self time and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap in a single-threaded run.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for index, span in enumerate(spans):
        stats = out[span.name]
        stats.calls += 1
        stats.self_s += span.end - span.start - child_time[index]
        for key, value in span.counts.items():
            stats.counts[key] += value
    return out
