"""The observability core: events, counters, stage timers.

An :class:`Observer` collects five kinds of signal while the toolchain
runs:

* **stage events** — monotonic wall-clock spans around named pipeline
  stages (``toolchain.compose``, ``toolchain.emit_ir``, ...), nested
  stages included;
* **counters** — monotonically increasing totals (elements parsed, refs
  resolved, groups expanded, cache hits/misses), aggregated rather than
  logged per increment so hot loops stay cheap;
* **histograms** — fixed log-bucketed value distributions
  (:class:`Histogram`; per-request service latencies), cheap enough to
  record on every request and mergeable across processes;
* **gauges** — last-written level samples (in-flight requests, hosted
  bytes) that sum across workers on merge;
* **marks** — one-off structured events (a cache invalidation, a trace
  annotation).

Everything is exportable as JSON-lines (:meth:`Observer.to_jsonl`) for the
``xpdl --trace`` flag and machine consumption.

The toolchain layers discover the active observer through a
:class:`contextvars.ContextVar` (:func:`get_observer`), so deep code —
the XML parser, the repository, the composer — reports without every
call site threading an observer argument.  The default is a
:class:`NullObserver` whose operations are no-ops; instrumented code
guards expensive aggregation behind ``obs.enabled`` so unobserved runs
(e.g. the E10 cold-path benches) pay almost nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(slots=True)
class Event:
    """One observability event.

    ``event`` is the record type (``stage``, ``counter`` or ``mark``),
    ``name`` the subject, ``at_s`` the monotonic offset from the
    observer's epoch, and ``fields`` free-form structured payload.
    """

    event: str
    name: str
    at_s: float
    fields: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"event": self.event, "name": self.name, "at_s": round(self.at_s, 9)}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True)


#: Histogram bucket upper bounds in seconds: 1 µs .. ~65 s, doubling.
#: Fixed for every histogram so snapshots merge bucket-for-bucket.
HISTOGRAM_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * 2**i for i in range(27)
)


class Histogram:
    """A fixed log-bucketed distribution of non-negative samples.

    Buckets are shared process-wide (:data:`HISTOGRAM_BOUNDS`), so two
    histograms — from two service workers, say — merge by adding bucket
    counts.  Quantiles are read back from the bucket upper bounds, which
    bounds the error at one doubling.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, value: float) -> None:
        lo, hi = 0, len(HISTOGRAM_BOUNDS)
        while lo < hi:  # inlined bisect: value -> first bound >= value
            mid = (lo + hi) // 2
            if HISTOGRAM_BOUNDS[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample."""
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                if i < len(HISTOGRAM_BOUNDS):
                    return min(HISTOGRAM_BOUNDS[i], self.max)
                return self.max
        return self.max

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": 0.0 if self.count == 0 else self.min,
            "max": self.max,
            "counts": list(self.counts),
        }

    def merge_dict(self, data: dict) -> None:
        counts = list(data.get("counts") or ())
        if len(counts) != len(self.counts):
            return  # foreign bucket layout: refuse rather than misfile
        for i, n in enumerate(counts):
            self.counts[i] += int(n)
        added = int(data.get("count", 0))
        self.count += added
        self.total += float(data.get("total", 0.0))
        if added:
            self.min = min(self.min, float(data.get("min", self.min)))
            self.max = max(self.max, float(data.get("max", self.max)))


@dataclass(slots=True)
class StageStats:
    """Aggregated view of one stage name across all its runs."""

    runs: int = 0
    total_s: float = 0.0

    def mean_s(self) -> float:
        return self.total_s / self.runs if self.runs else 0.0


class Observer:
    """Collects stage timings, counters and marks for one toolchain run."""

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.monotonic()
        self.events: list[Event] = []
        self.counters: dict[str, int] = {}
        self.stages: dict[str, StageStats] = {}
        self.histograms: dict[str, Histogram] = {}
        self.gauges: dict[str, float] = {}
        self._stack: list[str] = []

    # -- time -------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this observer was created (monotonic)."""
        return time.monotonic() - self._epoch

    # -- counters ----------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """Counter totals under one namespace (e.g. ``repo.`` for the
        distributed-repository fetch/retry/breaker/mirror activity)."""
        return {
            name: total
            for name, total in sorted(self.counters.items())
            if name.startswith(prefix)
        }

    # -- histograms --------------------------------------------------------
    def record(self, name: str, value: float) -> None:
        """Add one sample to the named histogram (seconds, bytes, ...)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)

    def histogram(self, name: str) -> Histogram | None:
        return self.histograms.get(name)

    # -- gauges ------------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its current level."""
        self.gauges[name] = value

    def gauge_add(self, name: str, delta: float) -> float:
        """Adjust the named gauge by ``delta``; returns the new level."""
        value = self.gauges.get(name, 0.0) + delta
        self.gauges[name] = value
        return value

    # -- marks -------------------------------------------------------------
    def mark(self, name: str, **fields) -> None:
        self.events.append(Event("mark", name, self.now(), fields))

    # -- stages ------------------------------------------------------------
    @contextmanager
    def stage(self, name: str, **fields) -> Iterator[None]:
        """Time a named stage; nests, and records parent provenance."""
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.monotonic()
        try:
            yield
        finally:
            dur = time.monotonic() - t0
            self._stack.pop()
            stats = self.stages.get(name)
            if stats is None:
                stats = self.stages[name] = StageStats()
            stats.runs += 1
            stats.total_s += dur
            payload = dict(fields)
            payload["duration_s"] = round(dur, 9)
            if parent is not None:
                payload["parent"] = parent
            self.events.append(Event("stage", name, t0 - self._epoch, payload))

    @property
    def current_stage(self) -> str | None:
        return self._stack[-1] if self._stack else None

    # -- cross-process aggregation -----------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view of the aggregates, safe to pickle across a
        process boundary (``xpdl build`` workers report through this)."""
        return {
            "counters": dict(self.counters),
            "stages": {
                name: {"runs": st.runs, "total_s": st.total_s}
                for name, st in self.stages.items()
            },
            "histograms": {
                name: h.to_dict() for name, h in self.histograms.items()
            },
            "gauges": dict(self.gauges),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another observer's :meth:`snapshot` into this one.

        Counters add up; stage stats accumulate runs and total time (the
        mean follows).  Event streams are deliberately not merged — they
        carry per-process monotonic offsets that do not compose; workers
        wanting event-level detail trace to their own files.
        """
        for name, total in (snapshot.get("counters") or {}).items():
            self.count(name, int(total))
        for name, st in (snapshot.get("stages") or {}).items():
            stats = self.stages.get(name)
            if stats is None:
                stats = self.stages[name] = StageStats()
            stats.runs += int(st.get("runs", 0))
            stats.total_s += float(st.get("total_s", 0.0))
        for name, data in (snapshot.get("histograms") or {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge_dict(data)
        # Gauges are levels, not totals: across workers the levels add
        # (total in-flight = sum of each worker's in-flight).
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauges[name] = self.gauges.get(name, 0.0) + float(value)

    # -- export ------------------------------------------------------------
    def iter_jsonl(self) -> Iterator[str]:
        """All events, then one summary line per counter/histogram/gauge."""
        for ev in self.events:
            yield ev.to_json()
        at = self.now()
        for name in sorted(self.counters):
            yield Event(
                "counter", name, at, {"total": self.counters[name]}
            ).to_json()
        for name in sorted(self.histograms):
            h = self.histograms[name]
            yield Event(
                "histogram",
                name,
                at,
                {
                    "count": h.count,
                    "mean": round(h.mean(), 9),
                    "p50": round(h.quantile(0.5), 9),
                    "p95": round(h.quantile(0.95), 9),
                    "p99": round(h.quantile(0.99), 9),
                    "max": h.max,
                },
            ).to_json()
        for name in sorted(self.gauges):
            yield Event(
                "gauge", name, at, {"value": self.gauges[name]}
            ).to_json()

    def to_jsonl(self) -> str:
        return "\n".join(self.iter_jsonl())


class NullObserver(Observer):
    """The do-nothing default; every operation is a cheap no-op."""

    enabled = False

    def __init__(self) -> None:
        self.events = []
        self.counters = {}
        self.stages = {}
        self.histograms = {}
        self.gauges = {}
        self._stack = []
        self._epoch = 0.0

    def now(self) -> float:
        return 0.0

    def count(self, name: str, n: int = 1) -> None:
        pass

    def record(self, name: str, value: float) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def gauge_add(self, name: str, delta: float) -> float:
        return 0.0

    def mark(self, name: str, **fields) -> None:
        pass

    def merge(self, snapshot: dict) -> None:
        pass  # the shared NULL_OBSERVER must stay empty

    @contextmanager
    def stage(self, name: str, **fields) -> Iterator[None]:
        yield


NULL_OBSERVER = NullObserver()

_ACTIVE: ContextVar[Observer] = ContextVar("xpdl_observer", default=NULL_OBSERVER)


def get_observer() -> Observer:
    """The observer active in this context (NullObserver when none)."""
    return _ACTIVE.get()


class use_observer:
    """Make ``observer`` the active one for the dynamic extent.

    A class, not a generator-based context manager: ``xpdl serve`` enters
    one per request, and this costs a fraction of what a generator does.
    """

    __slots__ = ("_observer", "_token")

    _token: Token[Observer]

    def __init__(self, observer: Observer) -> None:
        self._observer = observer

    def __enter__(self) -> Observer:
        self._token = _ACTIVE.set(self._observer)
        return self._observer

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE.reset(self._token)
