"""The benchmark's own arithmetic: percentiles, open-loop latency, self time,
the serve ladder rule.  Pure functions over plain numbers, so the tests in
``test_perfbench.py`` can pin each rule down without running a workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank; fewer make the tail a handful of outliers.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(n: int, p: float) -> int:
    # The small slack keeps 99.9 % of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank strictly above the ``p``-th percentile."""
    return n - _rank(n, p)


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest of :data:`TAIL_CANDIDATES` that has at
    least :data:`MIN_BEYOND` samples beyond it, or ``None`` when none has."""
    n = len(values)
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def p99(values: Sequence[float]) -> float | None:
    """The 99th percentile, or ``None`` when fewer than ten samples lie
    beyond it (under 1010 samples)."""
    if samples_beyond(len(values), 99.0) < MIN_BEYOND:
        return None
    return percentile(values, 99.0)


# -- open loop --------------------------------------------------------------


def open_loop_latencies(
    due: Sequence[float], done: Sequence[float]
) -> list[float]:
    """Latency of each request measured from when it was *due*, not from
    when it was sent: a stall that delays later sends is charged to every
    request it delayed (no coordinated omission)."""
    if len(due) != len(done):
        raise ValueError("due and done differ in length")
    return [d1 - d0 for d0, d1 in zip(due, done)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator sent each request (>= 0 up to clock jitter)."""
    return [s - d for d, s in zip(due, sent)]


def backlog_growing(latencies: Sequence[float], limit_s: float) -> bool:
    """Whether the queue grew over one fixed-rate step.

    Compares the median latency of the step's last third with its first
    third.  A queue that keeps growing adds the same wait to every later
    request, so the late median pulls away from the early one; a step
    whose late median stays under a quarter of the limit is never called
    growing, which keeps sub-millisecond jitter from tripping the rule.
    """
    n = len(latencies)
    if n < 3:
        return False
    third = n // 3
    early = median(latencies[:third])
    late = median(latencies[-third:])
    return late > 2.0 * early and late > limit_s / 4.0


@dataclass(frozen=True)
class Rung:
    """One ladder step: the offered rate and what it produced.

    ``achieved`` is the throughput the server delivered over the step
    (requests completed over the time from the first due time to the last
    reply); under overload it is the server's capacity.
    """

    rate: float
    latencies: tuple[float, ...]
    failed: int = 0
    achieved: float = 0.0


def _worst(rung: Rung) -> float:
    t = tail(rung.latencies)
    return t[1] if t is not None else max(rung.latencies)


def rung_passes(rung: Rung, limit_s: float) -> bool:
    """A rung passes with no failed request, its tail under the limit and
    no growing backlog.  The tail is p99 when the rung has enough samples,
    else the highest percentile that does."""
    if rung.failed or not rung.latencies:
        return False
    return _worst(rung) <= limit_s and not backlog_growing(rung.latencies, limit_s)


def max_sustainable_rate(rungs: Sequence[Rung], limit_s: float) -> float:
    """The ladder rule behind ``serve_max_rps``.

    Rungs are climbed in ascending rate order; the first rung that fails
    ends the climb, and the answer lies between the last passing rate and
    the failing one.  When the failing rung's queue grew, the server was
    overloaded and its achieved throughput is its capacity: the answer is
    that throughput, clamped into the bracket, so two runs that stop on
    the same rung still report a continuous figure.  Otherwise (a tail or
    a failure without overload) the answer is the last passing rate.
    ``0.0`` when the first rung fails; the top rate when every rung passes.
    """
    last: Rung | None = None
    for rung in sorted(rungs, key=lambda r: r.rate):
        if rung_passes(rung, limit_s):
            last = rung
            continue
        if last is None:
            return 0.0
        if rung.latencies and not rung.failed and backlog_growing(rung.latencies, limit_s):
            return min(rung.rate, max(last.rate, rung.achieved))
        return last.rate
    return last.rate if last is not None else 0.0


# -- spans ------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call into a layer.

    ``span_id`` and ``parent`` are unique across processes (the pid sits
    in their high 32 bits); ``rid`` is the request id, the id of the
    outermost span of the call tree the span belongs to.
    """

    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    rid: int

    @property
    def pid(self) -> int:
        return self.span_id >> 32

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, total (inclusive) seconds and self seconds.

    A span's self time is its duration minus the time its direct children
    cover.  Children of one span run on the span's own thread, one after
    another, so their durations never overlap and their sum is the
    covered time.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - child_time.get(s.span_id, 0.0)
    return out


def covered(spans: Iterable[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by outermost spans (no parent).

    Outermost spans of one thread are disjoint, so their clipped
    durations add up; pass the spans of one thread.
    """
    total = 0.0
    for s in spans:
        if s.parent is None:
            total += max(0.0, min(s.end, end) - max(s.start, start))
    return total


def imbalance(busy: Sequence[float]) -> float:
    """Max over mean worker busy time: 1.0 is perfectly balanced."""
    if not busy:
        return 1.0
    mean = sum(busy) / len(busy)
    return max(busy) / mean if mean > 0 else 1.0
