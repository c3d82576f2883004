"""The model host: one repository, hot compiled indexes, many consumers.

This is the piece the paper's deployment story needs ("the model is
queried in operation" — optimizers and schedulers interrogating the
platform description continuously): everything the one-shot CLI rebuilt
per process — repository index, parsed descriptors, compositions,
compiled :class:`~repro.runtime.index.IRIndex` es, path-plan LRUs — is
owned once by a :class:`ModelHost` and reused across requests.  The
``xpdl serve`` daemon puts an HTTP/JSON front on :meth:`ModelHost.handle`;
the one-shot ``xpdl`` commands whose output a host op also returns
(``list``, ``query``, ``info``, ``doctor``) render through the payload
builders below, so both print the same bytes.

Design points:

* **Hosted models** — per identifier, the host keeps the emitted runtime
  IR, its compiled index and one shared
  :class:`~repro.runtime.query.QueryContext` (so interned handles and
  memoized analyses stay warm across requests), in an LRU ordered dict
  with **byte-size accounting** (:meth:`~repro.ir.IRModel.approx_size_bytes`).
  When the hosted total exceeds ``max_model_bytes`` the least-recently
  used *idle* model is dropped; models leased by an in-flight request
  are never evicted mid-request (each request holds a refcount lease).
* **Hot reload** — the toolchain stage cache already fingerprints every
  stage over its transitive source texts.  A request first served within
  ``reload_ttl_s`` of the last freshness check reuses the hosted entry
  outright (the hot path: no fingerprinting, no recompile); past the
  TTL the host re-requests ``emit_ir`` through the session, whose
  fingerprint check either returns the *same* artifact (descriptor
  unchanged — the hosted index is kept) or recomposes (descriptor
  edited — the host swaps in a freshly indexed entry).  A session
  invalidation hook retires hosted entries eagerly when the stage cache
  notices an edit.  Responses are therefore always a consistent
  pre-edit or post-edit view, never a torn mix: every request pins
  exactly one immutable hosted entry for its whole lifetime.
* **Observability** — per-request latency histograms
  (``service.latency.<op>``), request/cache counters and an in-flight
  gauge on the host's :class:`~repro.obs.Observer`, merged through the
  standard ``snapshot()``/``merge()`` protocol and exposed by the
  ``stats`` op (the daemon's ``/stats`` endpoint).

Thread model: host state transitions (lease/build/evict/doctor) happen
under one re-entrant lock; query evaluation runs outside it against the
leased entry's read-only index (handle interning and analysis memos are
idempotent single-item writes, safe under the GIL), so many worker
threads can evaluate queries concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from contextlib import contextmanager

from ..diagnostics import QueryError, XpdlError
from ..ir import IRModel
from ..obs import Observer, use_observer
from ..repository import ModelRepository
from ..runtime import QueryContext, query_all, xpdl_init_from_model
from ..toolchain import EmitResult, ToolchainSession
from ..toolchain.diskcache import open_cache
from .options import RepositoryOptions, build_repository

#: Default hosted-model budget: generous for the paper corpus, small
#: enough that a generated thousand-descriptor fleet cycles through.
DEFAULT_MAX_MODEL_BYTES = 256 * 1024 * 1024

#: Default freshness TTL: requests within this window of the last
#: fingerprint check skip re-fingerprinting entirely (the hot path).
DEFAULT_RELOAD_TTL_S = 0.25

#: The standard analysis set of the ``analysis`` op.
DEFAULT_ANALYSES = (
    "count_cores",
    "count_cuda_devices",
    "total_static_power",
)


class ServiceError(XpdlError):
    """A request-level failure with an HTTP-ish status code."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _error_message(exc: XpdlError) -> str:
    """The bare message of a toolchain error.

    ``XpdlError.__str__`` appends every attached diagnostic — right for
    the CLI's stderr, wrong for a JSON error body that should stay one
    line.
    """
    return str(exc.args[0]) if exc.args else str(exc)


@dataclass
class HostedModel:
    """One model resident in the host: IR + compiled index + context."""

    identifier: str
    emit: EmitResult
    ctx: QueryContext
    size_bytes: int
    built_at: float
    checked_at: float
    generation: int
    hits: int = 0
    refs: int = 0
    _ir_sha256: str | None = field(default=None, repr=False)

    def ir_sha256(self) -> str:
        """SHA-256 of the serialized IR (lazy; cached per hosted entry)."""
        if self._ir_sha256 is None:
            self._ir_sha256 = self.emit.ir_sha256()
        return self._ir_sha256


# ---------------------------------------------------------------------------
# shared payload builders / renderers (CLI and service must agree byte-for-
# byte, so both go through these)
# ---------------------------------------------------------------------------


def handle_payload(handle: Any) -> dict[str, Any]:
    """JSON-safe view of one runtime handle."""
    return {"kind": handle.kind, "attrs": handle.attrs()}


def format_query_results(results: list[Mapping[str, Any]]) -> str:
    """Render query results exactly like ``xpdl query`` prints handles."""
    lines = []
    for r in results:
        attrs = " ".join(f'{k}="{v}"' for k, v in r["attrs"].items())
        lines.append(f"<{r['kind']} {attrs}>")
    return "\n".join(lines)


def info_payload(ctx: QueryContext) -> dict[str, Any]:
    """The ``info`` op's payload (mirrors ``xpdl info``'s analyses)."""
    installed = [h.label() for h in ctx.installed_software()]
    return {
        "system": ctx.meta("system", "?"),
        "elements": len(ctx.ir),
        "cores": ctx.count_cores(),
        "cpus": ctx.count_kind("cpu"),
        "devices": ctx.count_kind("device"),
        "cuda_devices": ctx.count_cuda_devices(),
        "static_power": str(ctx.total_static_power()),
        "installed": installed,
    }


def format_info(payload: Mapping[str, Any]) -> str:
    """Render an info payload exactly like ``xpdl info`` prints it."""
    installed = payload["installed"]
    return "\n".join(
        [
            f"system:          {payload['system']}",
            f"elements:        {payload['elements']}",
            f"cores:           {payload['cores']}",
            f"cpus:            {payload['cpus']}",
            f"devices:         {payload['devices']}",
            f"cuda devices:    {payload['cuda_devices']}",
            f"static power:    {payload['static_power']}",
            f"installed:       {', '.join(installed) if installed else '-'}",
        ]
    )


def run_analyses(ctx: QueryContext, names: tuple[str, ...]) -> dict[str, Any]:
    """Evaluate named model analyses over a context (O(1) memoized reads)."""
    out: dict[str, Any] = {}
    for name in names:
        if name == "count_cores":
            out[name] = ctx.count_cores()
        elif name == "count_cuda_devices":
            out[name] = ctx.count_cuda_devices()
        elif name == "total_static_power":
            q = ctx.total_static_power()
            out[name] = {"text": str(q), "watts": q.magnitude}
        elif name.startswith("count_kind:"):
            out[name] = ctx.count_kind(name.split(":", 1)[1])
        else:
            raise ServiceError(f"unknown analysis {name!r}", status=400)
    return out


def models_payload(repository: ModelRepository) -> dict[str, Any]:
    """The repository index rows (``xpdl list``, the ``models`` op)."""
    rows = [
        {
            "identifier": ident,
            "root_tag": entry.root_tag,
            "store": entry.store.url,
            "path": entry.path,
        }
        for ident, entry in sorted(repository.index().items())
    ]
    return {"count": len(rows), "models": rows}


def merged_doctor_report(
    session: ToolchainSession,
    identifiers: list[str] | None = None,
    suppress: tuple[str, ...] = (),
):
    """The doctor pass exactly as ``xpdl doctor`` runs it.

    One repository-wide pass plus one per-system pass, merged into a
    fresh report (the per-stage reports are cached session artifacts and
    must not be mutated).  Shared by the CLI command and the service's
    ``doctor`` op so both produce identical JSON.
    """
    from ..analysis import REPOSITORY_SCOPE, DoctorReport

    index = session.repository.index()
    idents = list(identifiers) if identifiers else session.repository.systems()
    for ident in idents:
        if ident not in index:
            raise XpdlError(f"unknown identifier {ident!r}")
    merged = DoctorReport()
    merged.merge(session.doctor(REPOSITORY_SCOPE, suppress=suppress))
    for ident in idents:
        if index[ident].root_tag != "system":
            continue  # plain descriptors are covered by the repository pass
        merged.merge(session.doctor(ident, suppress=suppress))
    return merged


# ---------------------------------------------------------------------------
# the host
# ---------------------------------------------------------------------------


class ModelHost:
    """Long-lived, multi-tenant front over one toolchain session."""

    def __init__(
        self,
        repository=None,
        *,
        session: ToolchainSession | None = None,
        observer: Observer | None = None,
        repo_options: RepositoryOptions | None = None,
        include: tuple[str, ...] | list[str] = (),
        max_model_bytes: int = DEFAULT_MAX_MODEL_BYTES,
        reload_ttl_s: float = DEFAULT_RELOAD_TTL_S,
        cache_dir: str | None = None,
    ) -> None:
        self.observer = observer if observer is not None else Observer()
        if session is None:
            if repository is None:
                opts = repo_options or RepositoryOptions()
                if include:
                    opts = opts.with_(
                        include=tuple(include) + tuple(opts.include)
                    )
                repository = build_repository(opts)
            session = ToolchainSession(
                repository,
                observer=self.observer,
                disk_cache=open_cache(cache_dir),
            )
        self._session = session
        self.max_model_bytes = int(max_model_bytes)
        self.reload_ttl_s = float(reload_ttl_s)
        self._lock = threading.RLock()
        self._models: "OrderedDict[str, HostedModel]" = OrderedDict()
        self._total_bytes = 0
        self._inflight = 0
        self._generation = 0
        self._started_at = time.monotonic()
        # Stage-cache fingerprints are the reload authority: when the
        # session notices an edited source it drops the stale stage entry
        # and this hook retires the hosted index built from it.
        session.add_invalidation_hook(self._on_stage_invalidated)

    # -- plumbing shared with the CLI ---------------------------------------
    @property
    def session(self) -> ToolchainSession:
        return self._session

    @property
    def repository(self):
        return self._session.repository

    # -- hosted-model lifecycle ---------------------------------------------
    def _on_stage_invalidated(self, stage: str, identifier: str) -> None:
        if stage != "emit_ir":
            return
        with self._lock:
            entry = self._models.pop(identifier, None)
            if entry is not None:
                self._total_bytes -= entry.size_bytes
                self.observer.count("service.model.invalidated")

    def _acquire(self, identifier: str) -> HostedModel:
        """Lease the hosted entry for ``identifier`` (refcounted).

        Fresh-within-TTL entries are returned without touching the
        repository; otherwise the stage cache revalidates the fingerprint
        and the entry is kept (unchanged sources) or rebuilt (edit).
        """
        now = time.monotonic()
        with self._lock:
            entry = self._models.get(identifier)
            if (
                entry is not None
                and (now - entry.checked_at) < self.reload_ttl_s
            ):
                entry.hits += 1
                entry.refs += 1
                self._models.move_to_end(identifier)
                self.observer.count("service.model.hits")
                return entry
            with use_observer(self.observer):
                try:
                    result = self._session.emit_ir(identifier)
                except ServiceError:
                    raise
                except XpdlError as exc:
                    raise ServiceError(
                        _error_message(exc), status=404
                    ) from exc
            # The emit_ir call may have fired the invalidation hook and
            # dropped the stale entry; re-read before deciding.
            entry = self._models.get(identifier)
            if entry is not None and entry.emit is result:
                entry.checked_at = now
                entry.hits += 1
                entry.refs += 1
                self._models.move_to_end(identifier)
                self.observer.count("service.model.revalidations")
                return entry
            if entry is not None:  # same identifier, new artifact: replace
                self._models.pop(identifier)
                self._total_bytes -= entry.size_bytes
                self.observer.count("service.model.reloads")
            self._generation += 1
            ctx = self._open_context(result)
            new = HostedModel(
                identifier=identifier,
                emit=result,
                ctx=ctx,
                size_bytes=result.ir.approx_size_bytes(),
                built_at=now,
                checked_at=now,
                generation=self._generation,
                hits=1,
                refs=1,
            )
            self._models[identifier] = new
            self._total_bytes += new.size_bytes
            self.observer.count("service.model.builds")
            self._evict_locked()
            return new

    def _open_context(self, result: EmitResult) -> QueryContext:
        """Compile one query context, preferring the persisted image.

        When the session's disk cache holds the v2 runtime image of this
        emit artifact, mmap it — the persisted index sections are adopted
        zero-copy and no :class:`IRIndex` is constructed.  Any defect in
        the image (torn write, stale cache, bit rot) falls back to
        compiling from the in-memory IR: slower, never wrong.
        """
        disk_cache = self._session.disk_cache
        if disk_cache is not None and result.image_key:
            path = disk_cache.find_image(result.image_key)
            if path is not None:
                try:
                    with use_observer(self.observer):
                        t0 = time.perf_counter()
                        ir = IRModel.load(path)
                        ctx = xpdl_init_from_model(ir)
                        self.observer.count("service.model.image_opens")
                        self.observer.record(
                            "index.open_s", time.perf_counter() - t0
                        )
                    return ctx
                except QueryError:
                    # Structurally corrupt core sections: the content
                    # address no longer matches what was stored.
                    self.observer.count("service.model.image_corrupt")
        with use_observer(self.observer):
            return xpdl_init_from_model(result.ir)

    def _release(self, entry: HostedModel) -> None:
        with self._lock:
            entry.refs -= 1

    @contextmanager
    def lease(self, identifier: str) -> Iterator[HostedModel]:
        """Context-managed lease: the entry cannot be evicted while held."""
        entry = self._acquire(identifier)
        try:
            yield entry
        finally:
            self._release(entry)

    def _evict_locked(self) -> None:
        """Drop least-recently-used *idle* models over the byte budget.

        An entry with a live lease (``refs > 0``) is skipped — eviction
        never yanks an index out from under an in-flight request; the
        budget is enforced against whatever is idle.
        """
        if self._total_bytes <= self.max_model_bytes:
            return
        for identifier in list(self._models):
            if self._total_bytes <= self.max_model_bytes:
                break
            entry = self._models[identifier]
            if entry.refs > 0:
                self.observer.count("service.evict.skipped_inuse")
                continue
            del self._models[identifier]
            self._total_bytes -= entry.size_bytes
            self.observer.count("service.evictions")
            self.observer.count("service.evict.bytes", entry.size_bytes)

    def hosted_identifiers(self) -> list[str]:
        with self._lock:
            return list(self._models)

    # -- request dispatch ----------------------------------------------------
    def dispatch(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one request object; raises :class:`ServiceError` on bad
        input.  ``{"op": ..., ...}`` shapes are documented per handler."""
        op = request.get("op")
        if not isinstance(op, str):
            raise ServiceError("request must carry a string 'op'", status=400)
        handler = self._OPS.get(op)
        if handler is None:
            raise ServiceError(f"unknown op {op!r}", status=404)
        t0 = time.perf_counter()
        obs = self.observer
        with self._lock:
            self._inflight += 1
            obs.gauge("service.inflight", self._inflight)
        try:
            return handler(self, request)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self._inflight -= 1
                obs.gauge("service.inflight", self._inflight)
                obs.count("service.requests")
                obs.count(f"service.requests.{op}")
                obs.record(f"service.latency.{op}", dt)

    def handle(self, request: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """:meth:`dispatch` with failures folded into ``(status, body)``."""
        try:
            return 200, self.dispatch(request)
        except ServiceError as exc:
            self.observer.count("service.errors")
            return exc.status, {"error": str(exc), "status": exc.status}
        except XpdlError as exc:
            self.observer.count("service.errors")
            return 400, {"error": _error_message(exc), "status": 400}

    # -- ops ------------------------------------------------------------------
    def _require(self, request: Mapping[str, Any], key: str) -> Any:
        value = request.get(key)
        if value is None:
            raise ServiceError(f"request is missing {key!r}", status=400)
        return value

    def _op_health(self, request: Mapping[str, Any]) -> dict[str, Any]:
        return {"ok": True, "uptime_s": round(self.uptime_s(), 3)}

    def _op_query(self, request: Mapping[str, Any]) -> dict[str, Any]:
        model = self._require(request, "model")
        path = self._require(request, "path")
        entry = self._acquire(model)
        try:
            try:
                handles = query_all(entry.ctx, path)
            except QueryError as exc:
                raise ServiceError(str(exc), status=400) from exc
            results = [handle_payload(h) for h in handles]
        finally:
            self._release(entry)
        return {
            "model": model,
            "path": path,
            "count": len(results),
            "results": results,
        }

    def _op_info(self, request: Mapping[str, Any]) -> dict[str, Any]:
        model = self._require(request, "model")
        entry = self._acquire(model)
        try:
            return info_payload(entry.ctx)
        finally:
            self._release(entry)

    def _op_analysis(self, request: Mapping[str, Any]) -> dict[str, Any]:
        model = self._require(request, "model")
        names = tuple(request.get("analyses") or DEFAULT_ANALYSES)
        entry = self._acquire(model)
        try:
            results = run_analyses(entry.ctx, names)
        finally:
            self._release(entry)
        return {"model": model, "results": results}

    def _op_compose(self, request: Mapping[str, Any]) -> dict[str, Any]:
        model = self._require(request, "model")
        entry = self._acquire(model)
        try:
            emit = entry.emit
            return {
                "model": model,
                "elements": len(emit.ir),
                "descriptors": len(emit.composed.referenced),
                "ir_sha256": entry.ir_sha256(),
                "dropped_attrs": emit.dropped_attrs,
                "dropped_elements": emit.dropped_elements,
            }
        finally:
            self._release(entry)

    def _op_doctor(self, request: Mapping[str, Any]) -> dict[str, Any]:
        models = request.get("models") or None
        suppress = tuple(request.get("suppress") or ())
        with self._lock, use_observer(self.observer):
            try:
                merged = merged_doctor_report(
                    self._session, models, suppress=suppress
                )
            except ServiceError:
                raise
            except XpdlError as exc:
                raise ServiceError(_error_message(exc), status=404) from exc
        return merged.to_dict()

    def _op_models(self, request: Mapping[str, Any]) -> dict[str, Any]:
        with self._lock, use_observer(self.observer):
            return models_payload(self.repository)

    def _op_batch(self, request: Mapping[str, Any]) -> dict[str, Any]:
        requests = self._require(request, "requests")
        if not isinstance(requests, list):
            raise ServiceError("'requests' must be a list", status=400)
        results = []
        for sub in requests:
            if not isinstance(sub, Mapping) or sub.get("op") == "batch":
                results.append(
                    {"error": "invalid batched request", "status": 400}
                )
                continue
            # Error bodies carry their own "status" field.
            _status, body = self.handle(sub)
            results.append(body)
        self.observer.count("service.batched", len(requests))
        return {"count": len(results), "results": results}

    def _op_stats(self, request: Mapping[str, Any]) -> dict[str, Any]:
        return self.stats()

    _OPS: dict[str, Callable[["ModelHost", Mapping[str, Any]], dict[str, Any]]] = {
        "health": _op_health,
        "query": _op_query,
        "info": _op_info,
        "analysis": _op_analysis,
        "compose": _op_compose,
        "doctor": _op_doctor,
        "models": _op_models,
        "batch": _op_batch,
        "stats": _op_stats,
    }

    # -- introspection ---------------------------------------------------------
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def stats(self) -> dict[str, Any]:
        """Host + observer view: the ``/stats`` endpoint's body."""
        now = time.monotonic()
        with self._lock:
            hosted = [
                {
                    "identifier": e.identifier,
                    "bytes": e.size_bytes,
                    "hits": e.hits,
                    "refs": e.refs,
                    "generation": e.generation,
                    "age_s": round(now - e.built_at, 3),
                }
                for e in self._models.values()
            ]
            snapshot = self.observer.snapshot()
            latency = {
                name.removeprefix("service.latency."): {
                    "count": h.count,
                    "mean_ms": round(h.mean() * 1e3, 3),
                    "p50_ms": round(h.quantile(0.5) * 1e3, 3),
                    "p95_ms": round(h.quantile(0.95) * 1e3, 3),
                    "p99_ms": round(h.quantile(0.99) * 1e3, 3),
                    "max_ms": round(h.max * 1e3, 3),
                }
                for name, h in sorted(self.observer.histograms.items())
                if name.startswith("service.latency.")
            }
            return {
                "uptime_s": round(now - self._started_at, 3),
                "hosted": hosted,
                "hosted_bytes": self._total_bytes,
                "max_model_bytes": self.max_model_bytes,
                "reload_ttl_s": self.reload_ttl_s,
                "inflight": self._inflight,
                "session_cache": self._session.cache_stats(),
                "latency": latency,
                "observer": snapshot,
            }
