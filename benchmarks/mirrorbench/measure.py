"""Sample statistics and the in-memory span recorder.

Two pieces of arithmetic every number in a mirrorbench result goes
through, kept free of any ``repro`` import so they can be checked on
hand-made inputs:

* :func:`percentile` -- nearest-rank: the smallest sample with at least
  ``p`` percent of the sample at or below it (no interpolation, so a
  reported latency is always one that was actually observed);
* :class:`SpanRecorder` / :func:`self_times` -- spans are recorded from
  the benchmark's own files around calls into each layer, kept in
  memory, written out once at the end; a span's *self time* is its
  duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile rank {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def median_or_zero(values: Sequence[float]) -> float:
    """Per-layer metrics read 0 on a workload that never calls the layer."""
    return median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread of one metric: the distance between the first
    and third quartile as a share of the median (the acceptance rule of
    the benchmark contract).  Fewer than two values carry no spread."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    request: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span log.

    Nesting is tracked per thread (a writer and a reader thread each
    build their own tree); ids come from one shared counter, and a span
    is appended when it *ends*, so the list is never observed half
    written."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent, inherited = stack[-1] if stack else (None, None)
        if request is None:
            request = inherited
        span_id = next(self._ids)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, request, name, start, end))

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed span under the current one (for
        spans whose name is only known once the call returned)."""
        stack = getattr(self._local, "stack", None)
        parent, request = stack[-1] if stack else (None, None)
        self.spans.append(Span(next(self._ids), parent, request, name, start, end))

    def dump(self) -> List[list]:
        """JSON-ready rows ``[id, parent, request, name, start, end]``,
        times in seconds relative to the first span's start."""
        if not self.spans:
            return []
        origin = min(s.start for s in self.spans)
        return [
            [s.span_id, s.parent, s.request, s.name,
             round(s.start - origin, 7), round(s.end - origin, 7)]
            for s in sorted(self.spans, key=lambda s: s.span_id)
        ]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time (seconds) per span id: duration minus the union of the
    child intervals, each clipped to the parent's own interval."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def per_request_ms(
    spans: Iterable[Span], *, self_time: bool = False
) -> Dict[str, Dict[object, float]]:
    """``{span name: {request: milliseconds}}``: within one request id
    the spans of one name are summed (a plan has ten ``join``
    statements; the metric is what they cost the request together).
    Spans without a request id each count as their own request."""
    spans = list(spans)
    cost = (
        self_times(spans) if self_time
        else {s.span_id: s.duration for s in spans}
    )
    sums: Dict[str, Dict[object, float]] = {}
    for s in spans:
        key = s.request if s.request is not None else ("span", s.span_id)
        bucket = sums.setdefault(s.name, {})
        bucket[key] = bucket.get(key, 0.0) + cost[s.span_id] * 1000.0
    return sums


def own_peak_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
