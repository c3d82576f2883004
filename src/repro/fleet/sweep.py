"""Parallel ``(policy, trace, seed)`` grid sweeps over one fleet model.

The capacity-planning workload the fleet simulator exists for — compare
every governor against several trace families over tens of seeds — is a
grid of fully independent cells, so it shards across the process pool
of :func:`repro.toolchain.batch.run_tasks`, the one ``xpdl build`` uses
(worker budget from :func:`repro.toolchain.batch.default_jobs`, same
in-process fallback for fork-restricted sandboxes).  Cells are dealt
round-robin in policy-major order, so every worker runs a share of
every governor (a race-to-idle cell costs two to three times another
governor's).  Each worker reopens the hosted model *zero-copy* from
the content-addressed image store (``.xpdl-cache/images/``):
:func:`repro.runtime.xpdl_init` mmaps the XPDLRT02 image and adopts its
persisted index sections (``index.load_mmap``, never ``index.rebuilds``), and
:func:`~repro.fleet.simulator.index_state_catalog` is built exactly once
per worker (``fleet.catalog_builds``) and shared by every cell the worker
runs — no recomposition, no re-indexing, no per-cell catalog walks.

Determinism contract: every cell is a pure function of
``(testbed, trace, policy)``, workers return bit-exact
:class:`~repro.fleet.simulator.PolicyResult` values, and the parent
reassembles them in grid order — so :meth:`SweepReport.to_json` (and its
digest) is byte-identical whether the sweep ran with ``--jobs 1`` or
``--jobs N``.  Anything that legitimately varies with parallelism (wall
time, worker count, merged counters) lives in :class:`SweepStats`, which
is deliberately outside the digest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import hashlib
import json

from ..diagnostics import XpdlError
from ..obs import Observer, get_observer, use_observer
from ..simhw import SimTestbed
from .governors import GOVERNORS
from .simulator import (
    DEFAULT_REQUEST_OPS,
    FleetSimulator,
    PolicyResult,
    index_state_catalog,
)
from .traces import TRACE_KINDS, Trace, make_trace


def parse_seeds(spec: str) -> tuple[int, ...]:
    """Parse a seed-list spec: ``"1..32"``, ``"0,3,7"``, ``"1..4,9"``.

    Ranges are inclusive; duplicates collapse, first occurrence wins.
    """
    seeds: list[int] = []
    seen: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ".." in part:
                lo_s, _, hi_s = part.partition("..")
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise XpdlError(
                        f"seed range {part!r} is empty (end before start)"
                    )
                values: Iterable[int] = range(lo, hi + 1)
            else:
                values = (int(part),)
        except ValueError:
            raise XpdlError(
                f"bad seed spec {spec!r}: {part!r} is not an integer "
                "or lo..hi range"
            ) from None
        for v in values:
            if v not in seen:
                seen.add(v)
                seeds.append(v)
    if not seeds:
        raise XpdlError(f"seed spec {spec!r} names no seeds")
    return tuple(seeds)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a policy over one seeded trace."""

    policy: str
    trace: str
    seed: int


@dataclass(frozen=True)
class SweepCellResult:
    cell: SweepCell
    result: PolicyResult

    def to_dict(self) -> dict:
        out = {"trace": self.cell.trace, "seed": self.cell.seed}
        out.update(self.result.to_dict())
        return out


@dataclass(frozen=True)
class _SweepTask:
    """Picklable description of one worker's share of the grid."""

    worker_index: int
    testbed: SimTestbed
    image_path: str | None
    catalog: dict[str, frozenset[str]] | None
    cells: tuple[tuple[int, SweepCell], ...]
    intervals: int
    interval_s: float
    request_ops: int


@dataclass(frozen=True)
class _WorkerOut:
    worker_index: int
    results: tuple[tuple[int, PolicyResult], ...]
    observations: dict
    duration_s: float


def _run_sweep_cells(task: _SweepTask) -> _WorkerOut:
    """Run one shard of cells; module-level so the pool can pickle it."""
    t0 = time.perf_counter()
    observer = Observer()
    with use_observer(observer):
        catalog = task.catalog
        if task.image_path is not None:
            # Zero-copy reopen: mmap the persisted XPDLRT02 image and
            # adopt its index sections; the catalog is then read through
            # the compiled query API once for all of this worker's cells.
            # A missing or unreadable image raises QueryError naming it.
            from ..runtime import xpdl_init

            ctx = xpdl_init(task.image_path)
            observer.count("fleet.sweep.image_opens")
            catalog = index_state_catalog(ctx, task.testbed)
        sim = FleetSimulator(
            task.testbed,
            state_catalog=catalog,
            request_ops=task.request_ops,
        )
        machine_names = sorted(task.testbed.machines)
        traces: dict[tuple[str, int], Trace] = {}
        results: list[tuple[int, PolicyResult]] = []
        for cell_index, cell in task.cells:
            key = (cell.trace, cell.seed)
            tr = traces.get(key)
            if tr is None:
                tr = traces[key] = make_trace(
                    cell.trace,
                    seed=cell.seed,
                    intervals=task.intervals,
                    interval_s=task.interval_s,
                    machines=machine_names,
                )
            results.append((cell_index, sim.run_policy(cell.policy, tr)))
            observer.count("fleet.sweep.cells")
    return _WorkerOut(
        worker_index=task.worker_index,
        results=tuple(results),
        observations=observer.snapshot(),
        duration_s=time.perf_counter() - t0,
    )


@dataclass
class SweepReport:
    """Digest-stable outcome of one grid sweep (independent of ``jobs``)."""

    model: str
    machines: int
    peak_capacity: int
    intervals: int
    interval_s: float
    request_ops: int
    policies: tuple[str, ...]
    traces: tuple[str, ...]
    seeds: tuple[int, ...]
    cells: tuple[SweepCellResult, ...]

    def cell(self, policy: str, trace: str, seed: int) -> PolicyResult:
        for c in self.cells:
            if c.cell == SweepCell(policy, trace, seed):
                return c.result
        raise XpdlError(
            f"sweep has no cell (policy={policy!r}, trace={trace!r}, "
            f"seed={seed})"
        )

    def _aggregate(self, cells: Iterable[SweepCellResult]) -> dict:
        """Deterministic totals over ``cells`` in grid order."""
        energy = 0.0
        offered = served = slo_met = intervals = switches = n = 0
        for c in cells:
            r = c.result
            energy += r.energy_j
            offered += r.offered
            served += r.served
            slo_met += r.slo_met_intervals
            intervals += r.intervals
            switches += r.switches
            n += 1
        return {
            "cells": n,
            "energy_j": round(energy, 6),
            "slo_attainment": round(slo_met / intervals, 6) if intervals else 1.0,
            "service_level": round(served / offered, 6) if offered else 1.0,
            "switches": switches,
        }

    def frontier(self) -> dict[str, dict]:
        """Per-policy aggregate energy/SLO over the whole grid.

        The delta column is ``None`` (``n/a`` in the table) when the
        sweep did not include the performance policy — a delta against a
        missing baseline would be a lie, not a zero.
        """
        rows = {
            policy: self._aggregate(
                c for c in self.cells if c.cell.policy == policy
            )
            for policy in self.policies
        }
        base = rows.get("performance")
        base_energy = base["energy_j"] if base else 0.0
        for row in rows.values():
            row["energy_delta_vs_performance"] = (
                round((row["energy_j"] - base_energy) / base_energy, 6)
                if base_energy > 0.0
                else None
            )
        return rows

    def by_trace(self) -> dict[str, dict[str, dict]]:
        """Per-trace-family breakdown of the per-policy aggregates."""
        return {
            kind: {
                policy: self._aggregate(
                    c
                    for c in self.cells
                    if c.cell.policy == policy and c.cell.trace == kind
                )
                for policy in self.policies
            }
            for kind in self.traces
        }

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "machines": self.machines,
            "peak_capacity": self.peak_capacity,
            "intervals": self.intervals,
            "interval_s": self.interval_s,
            "request_ops": self.request_ops,
            # A fixed value: dropping the key would change every digest.
            "engine": "memo",
            "policies": list(self.policies),
            "traces": list(self.traces),
            "seeds": list(self.seeds),
            "cells": [c.to_dict() for c in self.cells],
            "frontier": self.frontier(),
            "by_trace": self.by_trace(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def render_table(self) -> str:
        frontier = self.frontier()
        head = (
            f"fleet sweep {self.model}: {len(self.policies)} policies x "
            f"{len(self.traces)} traces x {len(self.seeds)} seeds = "
            f"{len(self.cells)} cells "
            f"({self.intervals}x{self.interval_s:g}s, "
            f"machines={self.machines}, peak={self.peak_capacity} "
            "req/interval)"
        )
        cols = (
            f"{'policy':<14} {'energy [kJ]':>12} {'vs perf':>8} "
            f"{'SLO':>7} {'service':>8} {'switches':>9}"
        )
        lines = [head, cols, "-" * len(cols)]
        for policy in self.policies:
            row = frontier[policy]
            delta = row["energy_delta_vs_performance"]
            delta_s = f"{delta:+8.1%}" if delta is not None else f"{'n/a':>8}"
            lines.append(
                f"{policy:<14} {row['energy_j'] / 1e3:>12.3f} {delta_s} "
                f"{row['slo_attainment']:>7.1%} "
                f"{row['service_level']:>8.1%} {row['switches']:>9d}"
            )
        by_trace = self.by_trace()
        lines.append("")
        lines.append(
            f"{'per-trace energy [kJ]':<22} "
            + " ".join(f"{p:>14}" for p in self.policies)
        )
        for kind in self.traces:
            lines.append(
                f"{kind:<22} "
                + " ".join(
                    f"{by_trace[kind][p]['energy_j'] / 1e3:>14.3f}"
                    for p in self.policies
                )
            )
        return "\n".join(lines)


@dataclass
class SweepStats:
    """Run-shape facts that legitimately vary with ``--jobs``."""

    jobs: int
    workers: int
    cells: int
    wall_s: float
    worker_s: tuple[float, ...]
    counters: dict[str, int]

    @property
    def cells_per_s(self) -> float:
        return self.cells / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "cells": self.cells,
            "wall_s": round(self.wall_s, 6),
            "cells_per_s": round(self.cells_per_s, 3),
            "worker_s": [round(w, 6) for w in self.worker_s],
            "counters": dict(sorted(self.counters.items())),
        }


def _deal_cells(
    cells: list[SweepCell], policies: tuple[str, ...], workers: int
) -> list[list[tuple[int, SweepCell]]]:
    """Deal ``(grid index, cell)`` pairs round-robin in policy-major order.

    All of the first policy's cells are dealt (in grid order), then the
    second's, and so on.  Governors differ in cost per cell (race-to-idle
    ranks power states where the others look up a ladder end), and grid
    order repeats the policies with period ``len(policies)``, so dealing
    grid order round-robin would hand each worker a fixed subset of the
    policies.  Any round-robin deal gives every worker ``floor`` or
    ``ceil`` of ``cells / workers`` cells; policy-major order also spreads
    every policy's cells over all workers.
    """
    rank = {policy: i for i, policy in enumerate(policies)}
    order = sorted(range(len(cells)), key=lambda i: rank[cells[i].policy])
    shards: list[list[tuple[int, SweepCell]]] = [[] for _ in range(workers)]
    for k, i in enumerate(order):
        shards[k % workers].append((i, cells[i]))
    return shards


def run_sweep(
    testbed: SimTestbed,
    *,
    policies: Iterable[str],
    traces: Iterable[str],
    seeds: Iterable[int],
    intervals: int = 72,
    interval_s: float = 60.0,
    request_ops: int = DEFAULT_REQUEST_OPS,
    image_path: str | None = None,
    state_catalog: Mapping[str, frozenset[str]] | None = None,
    jobs: int | None = None,
    observer: Observer | None = None,
) -> tuple[SweepReport, SweepStats]:
    """Shard the grid across workers and merge one digest-stable report.

    ``image_path`` points at a persisted XPDLRT02 runtime image; each
    worker mmaps it and derives the state catalog through the compiled
    query engine.  Without an image, ``state_catalog`` (built once by the
    caller) is shipped to the workers instead; with neither, cells run
    uncatalogued (no per-decision validation) — fine for synthetic
    testbeds that never went through the toolchain.

    Returns ``(report, stats)``: the report is byte-identical for any
    ``jobs``; the stats (wall, workers, merged counters) are not part of
    the digest.  A failure to create the pool or submit to it
    (fork-restricted sandboxes) degrades to in-process execution,
    recorded as ``fleet.sweep.pool_fallback``; an error raised in a
    worker propagates unchanged.
    """
    from ..toolchain.batch import default_jobs, run_tasks

    policy_list = tuple(dict.fromkeys(policies))
    if not policy_list:
        raise XpdlError("no policies requested for fleet sweep")
    for policy in policy_list:
        if policy not in GOVERNORS:
            raise XpdlError(
                f"unknown governor {policy!r}; "
                f"policies: {', '.join(GOVERNORS)}"
            )
    trace_list = tuple(dict.fromkeys(traces))
    if not trace_list:
        raise XpdlError("no trace kinds requested for fleet sweep")
    for kind in trace_list:
        if kind not in TRACE_KINDS:
            raise XpdlError(
                f"unknown trace kind {kind!r}; "
                f"kinds: {', '.join(TRACE_KINDS)}"
            )
    seed_list = tuple(dict.fromkeys(int(s) for s in seeds))
    if not seed_list:
        raise XpdlError("no seeds requested for fleet sweep")

    cells = [
        SweepCell(policy, kind, seed)
        for kind in trace_list
        for seed in seed_list
        for policy in policy_list
    ]
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, jobs)
    n_workers = min(jobs, len(cells))

    # Workers only need the machines: links and descriptor-side
    # instruction models are irrelevant to the interval loop and would
    # bloat every task pickle.
    pruned = SimTestbed(name=testbed.name, machines=dict(testbed.machines))
    shards = _deal_cells(cells, policy_list, n_workers)
    tasks = [
        _SweepTask(
            worker_index=w,
            testbed=pruned,
            image_path=image_path,
            catalog=dict(state_catalog) if state_catalog is not None else None,
            cells=tuple(shard),
            intervals=intervals,
            interval_s=interval_s,
            request_ops=request_ops,
        )
        for w, shard in enumerate(shards)
    ]

    merged = Observer()
    t0 = time.perf_counter()
    outs = run_tasks(
        _run_sweep_cells,
        tasks,
        lambda _exc: merged.count("fleet.sweep.pool_fallback"),
    )
    wall_s = time.perf_counter() - t0

    results: list[PolicyResult | None] = [None] * len(cells)
    worker_s = []
    for out in sorted(outs, key=lambda o: o.worker_index):
        merged.merge(out.observations)
        worker_s.append(out.duration_s)
        for cell_index, result in out.results:
            results[cell_index] = result
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        raise XpdlError(
            f"sweep workers returned no result for {len(missing)} cell(s)"
        )
    merged.count("fleet.sweep.workers", len(outs))

    caller = observer if observer is not None else get_observer()
    caller.merge(merged.snapshot())

    sizer = FleetSimulator(
        pruned, state_catalog=None, request_ops=request_ops
    )
    report = SweepReport(
        model=testbed.name,
        machines=len(testbed.machines),
        peak_capacity=sizer.peak_capacity(interval_s),
        intervals=intervals,
        interval_s=interval_s,
        request_ops=request_ops,
        policies=policy_list,
        traces=trace_list,
        seeds=seed_list,
        cells=tuple(
            SweepCellResult(cell, result)
            for cell, result in zip(cells, results)
            if result is not None
        ),
    )
    stats = SweepStats(
        jobs=jobs,
        workers=len(outs),
        cells=len(cells),
        wall_s=wall_s,
        worker_s=tuple(worker_s),
        counters=dict(merged.counters),
    )
    return report, stats
