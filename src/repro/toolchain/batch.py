"""Parallel batch compilation of system descriptors (``xpdl build``).

The paper's toolchain composes a *distributed library* of descriptor
modules into one runtime model per target system.  That shape of work
scales far past the three paper systems, so this module turns the staged
:class:`~repro.toolchain.ToolchainSession` into a batch compiler:

1. **Discover** every ``<system>`` descriptor in the repository (plus any
   user-supplied search-path roots) — :func:`discover_systems`.
2. **Shard** the systems deterministically by their transitive-reference
   fingerprints — :func:`plan_shards`.  Each system's closure (the
   descriptors it transitively references) is fingerprinted; shards are
   packed longest-processing-time-first by closure text size, with ties
   broken toward the shard already holding the most shared descriptors,
   so workers get balanced load and maximal warm-parse reuse.
3. **Fan out** one worker per shard across a
   :class:`~concurrent.futures.ProcessPoolExecutor` (``--jobs N``,
   default :func:`default_jobs` — the CPUs actually available to this
   process, not the machine's count).  Workers share one persistent stage
   cache directory; artifacts any worker computes are reusable by every
   later invocation.
4. **Merge** the per-worker diagnostics, observer counters and stage
   timings back into the caller's sink/observer — one report, however
   many processes did the work (:class:`BatchReport`).

Determinism: IR emission depends only on descriptor sources and composer
options, so a parallel build produces byte-identical ``.xir`` artifacts
to a sequential one; :class:`SystemBuild` records each IR's SHA-256 so
callers (and CI) can assert it.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

from ..diagnostics import Diagnostic, DiagnosticSink, SourceSpan, XpdlError
from ..obs import Observer, get_observer
from ..repository import ModelRepository
from .diskcache import DEFAULT_CACHE_DIR, PersistentStageCache
from .session import ToolchainSession


def default_jobs() -> int:
    """Worker processes to use when the caller does not say (``--jobs``).

    ``os.cpu_count()`` reports the *machine's* processors, which
    oversubscribes the pool inside cgroup- or affinity-limited containers
    (exactly where CI and ``xpdl serve`` run).  The CPUs actually
    available to this process — :func:`os.sched_getaffinity` — are the
    honest budget; platforms without it fall back to ``cpu_count``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux, or restricted sandbox
        return os.cpu_count() or 1


_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def run_tasks(
    fn: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    on_fallback: Callable[[BaseException], None],
) -> list[_Result]:
    """``[fn(task) for task in tasks]``, one pool worker per task.

    ``fn`` must be a module-level function so the process pool can pickle
    it; a single task runs in-process.  Only a failure to create the pool
    or to submit to it (a fork-restricted sandbox) runs every task
    in-process instead, after ``on_fallback(exc)``.  An exception a worker
    raises, ``BrokenProcessPool`` from a dead worker included, propagates
    once, unchanged.
    """
    if len(tasks) <= 1:
        return [fn(task) for task in tasks]
    pool: ProcessPoolExecutor | None = None
    try:
        pool = ProcessPoolExecutor(max_workers=len(tasks))
        futures = [pool.submit(fn, task) for task in tasks]
    except (OSError, RuntimeError) as exc:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        on_fallback(exc)
        return [fn(task) for task in tasks]
    with pool:
        return [future.result() for future in futures]


def discover_systems(
    repository: ModelRepository, only: Sequence[str] = ()
) -> list[str]:
    """Identifiers to build: every ``<system>`` descriptor, or exactly ``only``.

    When ``only`` is given, those identifiers restrict the build (they may
    name non-system descriptors — they still go through ``emit_ir``); each
    is validated against the index so unknown names raise
    :class:`XpdlError` up front rather than mid-build.
    """
    if not only:
        return repository.systems()
    index = repository.index()
    targets: list[str] = []
    for ident in only:
        if ident not in index:
            raise XpdlError(f"unknown identifier {ident!r}")
        if ident not in targets:
            targets.append(ident)
    return targets


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """The deterministic work split of one batch build."""

    shards: tuple[tuple[str, ...], ...]
    #: system identifier -> SHA-256 over its sorted transitive closure
    #: (names and current source texts).
    fingerprints: dict[str, str]
    #: system identifier -> sorted closure identifiers.
    closures: dict[str, tuple[str, ...]]


def plan_shards(
    repository: ModelRepository,
    identifiers: Sequence[str],
    jobs: int,
    sink: DiagnosticSink | None = None,
) -> ShardPlan:
    """Split ``identifiers`` into at most ``jobs`` balanced shards.

    Systems are ordered by descending closure weight (total referenced
    source text) with the closure fingerprint as a deterministic
    tie-break, then packed into the least-loaded shard; among equally
    loaded shards the one sharing the most closure descriptors wins, so
    related systems co-locate when it costs no balance.
    """
    sink = sink if sink is not None else DiagnosticSink()
    closures: dict[str, tuple[str, ...]] = {}
    fingerprints: dict[str, str] = {}
    weights: dict[str, int] = {}
    for ident in identifiers:
        closure = repository.load_closure(ident, sink)
        names = tuple(sorted(closure)) or (ident,)
        closures[ident] = names
        h = hashlib.sha256()
        weight = 0
        for name in names:
            text = repository.source_text(name) or ""
            h.update(name.encode("utf-8"))
            h.update(b"\0")
            h.update(text.encode("utf-8"))
            weight += len(text)
        fingerprints[ident] = h.hexdigest()
        weights[ident] = weight

    jobs = max(1, min(jobs, len(identifiers)) if identifiers else 1)
    bins: list[dict[str, Any]] = [
        {"weight": 0, "refs": set(), "members": []} for _ in range(jobs)
    ]
    order = sorted(identifiers, key=lambda i: (-weights[i], fingerprints[i]))
    for ident in order:
        refs = set(closures[ident])
        best = min(
            range(len(bins)),
            key=lambda b: (
                bins[b]["weight"],
                -len(bins[b]["refs"] & refs),
                b,
            ),
        )
        bins[best]["weight"] += weights[ident]
        bins[best]["refs"] |= refs
        bins[best]["members"].append(ident)
    shards = tuple(
        tuple(b["members"]) for b in bins if b["members"]
    )
    return ShardPlan(shards=shards, fingerprints=fingerprints, closures=closures)


@dataclass(slots=True)
class SystemBuild:
    """Outcome of compiling one system."""

    identifier: str
    ok: bool
    duration_s: float
    ir_sha256: str | None = None
    elements: int = 0
    referenced: int = 0
    out_path: str | None = None
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "identifier": self.identifier,
            "ok": self.ok,
            "duration_s": round(self.duration_s, 6),
            "ir_sha256": self.ir_sha256,
            "elements": self.elements,
            "referenced": self.referenced,
            "out_path": self.out_path,
            "error": self.error,
        }


@dataclass(slots=True)
class WorkerReport:
    """Everything one worker sends back across the process boundary."""

    shard_index: int
    builds: list[SystemBuild]
    diagnostics: tuple[Diagnostic, ...]
    observations: dict
    cache: dict[str, int]
    duration_s: float


@dataclass
class BatchReport:
    """The merged result of one batch build."""

    builds: list[SystemBuild]
    shards: tuple[tuple[str, ...], ...]
    jobs: int
    wall_s: float
    cache: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    stage_timings: dict[str, dict[str, float]] = field(default_factory=dict)
    diagnostics: tuple[Diagnostic, ...] = ()
    cache_dir: str | None = None
    fingerprints: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(b.ok for b in self.builds)

    @property
    def models_per_s(self) -> float:
        return len(self.builds) / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        """Stage-cache efficiency: (memory + disk hits) / all requests."""
        hits = self.cache.get("hits", 0) + self.cache.get("disk_hits", 0)
        total = hits + self.cache.get("misses", 0)
        return hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (``xpdl build --json``, the bench harness)."""
        return {
            "ok": self.ok,
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 6),
            "models_per_s": round(self.models_per_s, 3),
            "hit_rate": round(self.hit_rate, 4),
            "cache": dict(self.cache),
            "cache_dir": self.cache_dir,
            "shards": [list(s) for s in self.shards],
            "builds": [b.to_dict() for b in self.builds],
            "counters": dict(sorted(self.counters.items())),
            "stage_timings": {
                name: {k: round(v, 6) for k, v in st.items()}
                for name, st in sorted(self.stage_timings.items())
            },
            "diagnostics": [str(d) for d in self.diagnostics],
            "fingerprints": dict(sorted(self.fingerprints.items())),
        }


@dataclass(frozen=True)
class _WorkerTask:
    """Picklable description of one shard's work."""

    repository: ModelRepository
    shard: tuple[str, ...]
    shard_index: int
    cache_dir: str | None
    out_dir: str | None
    keep_all: bool


def _run_worker(task: _WorkerTask) -> WorkerReport:
    """Compile one shard; module-level so the process pool can pickle it."""
    t0 = time.perf_counter()
    observer = Observer()
    sink = DiagnosticSink()
    disk = (
        PersistentStageCache(task.cache_dir) if task.cache_dir else None
    )
    session = ToolchainSession(
        task.repository, sink=sink, observer=observer, disk_cache=disk
    )
    builds: list[SystemBuild] = []
    for ident in task.shard:
        started = time.perf_counter()
        try:
            result = session.emit_ir(ident, keep_all=task.keep_all)
            out_path = None
            if task.out_dir:
                os.makedirs(task.out_dir, exist_ok=True)
                out_path = os.path.join(task.out_dir, f"{ident}.xir")
                result.ir.save(out_path)
            builds.append(
                SystemBuild(
                    identifier=ident,
                    ok=True,
                    duration_s=time.perf_counter() - started,
                    ir_sha256=result.ir_sha256(),
                    elements=len(result.ir),
                    referenced=len(result.referenced),
                    out_path=out_path,
                )
            )
        except BaseException as exc:
            # One broken system must not kill the shard — but only genuine
            # Exceptions become shard diagnostics.  KeyboardInterrupt,
            # SystemExit and friends are cancellation, not a build result;
            # swallowing them here would silently convert a ^C into a
            # "FAIL" row, so they propagate.
            if not isinstance(exc, Exception):
                raise
            observer.count("batch.system_errors")
            sink.error(
                "XPDL0404",
                f"building {ident!r} failed: {exc}",
                SourceSpan.unknown(ident),
                traceback.format_exc(),
            )
            builds.append(
                SystemBuild(
                    identifier=ident,
                    ok=False,
                    duration_s=time.perf_counter() - started,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return WorkerReport(
        shard_index=task.shard_index,
        builds=builds,
        diagnostics=sink.diagnostics,
        observations=observer.snapshot(),
        cache=session.cache_stats(),
        duration_s=time.perf_counter() - t0,
    )


def run_batch(
    repository: ModelRepository | None = None,
    identifiers: Sequence[str] | None = None,
    *,
    jobs: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    out_dir: str | None = None,
    keep_all: bool = False,
    include: Sequence[str] = (),
    observer: Observer | None = None,
    sink: DiagnosticSink | None = None,
) -> BatchReport:
    """Discover, shard and compile systems; merge everything into one report.

    ``jobs=1`` (or a single shard) builds in-process — same code path the
    workers run, no pool.  ``cache_dir=None`` disables persistence.  The
    caller's ``observer`` and ``sink`` receive the merged counters/stage
    timings and diagnostics of every worker.
    """
    if repository is None:
        from ..modellib import standard_repository

        repository = standard_repository(*include)
    observer = observer if observer is not None else get_observer()
    sink = sink if sink is not None else DiagnosticSink()
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, jobs)

    t0 = time.perf_counter()
    with sink.stage("batch"):
        targets = discover_systems(repository, tuple(identifiers or ()))
        # The planner re-walks every closure; its resolution notes would
        # only duplicate what the compose stage reports, so they go to a
        # scratch sink.
        plan = plan_shards(repository, targets, jobs, DiagnosticSink())
    tasks = [
        _WorkerTask(
            repository=repository,
            shard=shard,
            shard_index=i,
            cache_dir=cache_dir,
            out_dir=out_dir,
            keep_all=keep_all,
        )
        for i, shard in enumerate(plan.shards)
    ]

    def pool_unavailable(exc: BaseException) -> None:
        sink.warning(
            "XPDL0402",
            f"process pool unavailable ({exc}); building in-process",
            SourceSpan.unknown("batch"),
        )

    reports = run_tasks(_run_worker, tasks, pool_unavailable)
    wall_s = time.perf_counter() - t0

    builds: list[SystemBuild] = []
    cache: dict[str, int] = {}
    merged = Observer()
    for report in sorted(reports, key=lambda r: r.shard_index):
        builds.extend(report.builds)
        sink.extend(report.diagnostics)
        merged.merge(report.observations)
        for key, value in report.cache.items():
            cache[key] = cache.get(key, 0) + value
    observer.merge(merged.snapshot())
    builds.sort(key=lambda b: b.identifier)
    return BatchReport(
        builds=builds,
        shards=plan.shards,
        jobs=jobs,
        wall_s=wall_s,
        cache=cache,
        counters=dict(merged.counters),
        stage_timings={
            name: {"runs": st.runs, "total_s": st.total_s, "mean_s": st.mean_s()}
            for name, st in merged.stages.items()
        },
        diagnostics=sink.diagnostics,
        cache_dir=os.path.abspath(cache_dir) if cache_dir else None,
        fingerprints=plan.fingerprints,
    )
