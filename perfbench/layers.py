"""Which public functions make up each layer, and the layer figures a traced
run reports.

Each table maps a layer name to the places its functions are looked up
by their callers: ``(module, attribute)``, where the attribute may be
``Class.method``.  A layer's self time is the time inside its functions
minus the time inside any other wrapped function they call.
"""

from __future__ import annotations

from typing import Iterable

from .stats import Span, covered, self_times

#: The Section-IV pipeline, as ``run_batch`` and the doctor drive it.
TOOLCHAIN = {
    "xpdlxml.parse": [("repro.repository.repository", "parse_xml")],
    "schema.validate": [("repro.schema.validate", "SchemaValidator.validate")],
    "repository.load": [("repro.repository.repository", "ModelRepository.load")],
    "repository.source_text": [
        ("repro.repository.repository", "ModelRepository.source_text")
    ],
    "inherit.resolve": [("repro.inherit.engine", "InheritanceEngine.resolve")],
    "composer.compose": [("repro.composer.compose", "Composer.compose")],
    "analysis.analyze": [
        ("repro.toolchain.session", "downgrade_bandwidths"),
        ("repro.toolchain.session", "lint_model"),
    ],
    "analysis.doctor": [
        ("repro.toolchain.session", "check_repository"),
        ("repro.toolchain.session", "check_system"),
    ],
    "ir.emit": [
        ("repro.ir.format", "IRModel.from_model"),
        ("repro.ir.format", "IRModel.to_bytes"),
    ],
    "toolchain.diskcache.load": [
        ("repro.toolchain.diskcache", "PersistentStageCache.load")
    ],
    "toolchain.diskcache.store": [
        ("repro.toolchain.diskcache", "PersistentStageCache.store"),
        ("repro.toolchain.diskcache", "PersistentStageCache.store_image"),
    ],
    "toolchain.batch.plan": [
        ("repro.toolchain.batch", "discover_systems"),
        ("repro.toolchain.batch", "plan_shards"),
    ],
    # Stage requests: fingerprinting, cache lookups and stage glue.
    "toolchain.session": [("repro.toolchain.session", "ToolchainSession.request")],
}

#: The query path below the benchmark's own calls (introspect).
QUERY = {
    "ir.open": [("repro.ir.format", "IRModel.load")],
    "runtime.plan.compile": [("repro.runtime.paths", "compile_path")],
}

#: A service request inside ``xpdl serve``.
SERVICE = {
    "service.handle": [("repro.service.core", "ModelHost.handle")],
    "service.render": [
        ("repro.service.core", "handle_payload"),
        ("repro.service.core", "info_payload"),
        ("repro.service.core", "run_analyses"),
    ],
    "service.revalidate": [("repro.toolchain.session", "ToolchainSession.emit_ir")],
    "runtime.query": [("repro.service.core", "query_all")],
    "runtime.init": [("repro.service.core", "xpdl_init_from_model")],
    **QUERY,
}

#: A fleet interval: decide, then allocate and account (``run_policy``).
FLEET = {
    "fleet.decide": [
        ("repro.fleet.governors", f"{cls}.decide")
        for cls in (
            "PerformanceGovernor",
            "PowersaveGovernor",
            "OndemandGovernor",
            "RaceToIdleGovernor",
        )
    ],
    "fleet.simulate": [("repro.fleet.simulator", "FleetSimulator.run_policy")],
    "fleet.trace": [("repro.fleet.sweep", "make_trace")],
}


#: Figures published under another name.
_ALIASES = {"runtime.plan.compile.self_s": "runtime.plan.compile_s"}


def layer_figures(
    spans: Iterable[Span], names: Iterable[str]
) -> dict[str, tuple[float, str]]:
    """``<layer>.calls`` and ``<layer>.self_s`` for each named layer."""
    rows = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for name in names:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        key = f"{name}.self_s"
        out[_ALIASES.get(key, key)] = (row["self_s"], "s")
    return out


def harness_time(spans: Iterable[Span], pid: int, start: float, end: float) -> float:
    """Seconds of the benchmark process's ``[start, end]`` outside every
    span: the benchmark's own bookkeeping (edits, checks, directory
    clean-up, building its inputs), kept out of the residual."""
    mine = [s for s in spans if s.pid == pid]
    return max(0.0, (end - start) - covered(mine, start, end))


def worker_residual(
    spans: Iterable[Span], busy_s: float, pid: int, entry: str, names: Iterable[str]
) -> float:
    """Seconds of ``busy_s`` that no layer span covers.

    ``busy_s`` is the time the program's pool workers report working
    (per-system build times, ``SweepStats.worker_s``).  Inside it, a
    worker's layer spans are its outermost spans among ``names``; when
    the pool ran in-process, in the benchmark process ``pid``, they are
    the children of the benchmark's ``entry`` span instead.
    """
    spans = list(spans)
    names = set(names)
    entries = {s.span_id for s in spans if s.name == entry}
    inside = sum(
        s.duration
        for s in spans
        if s.name in names
        and ((s.pid != pid and s.parent is None) or s.parent in entries)
    )
    return max(0.0, busy_s - inside)
