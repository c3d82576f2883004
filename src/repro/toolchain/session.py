"""The staged toolchain session: one pipeline, shared artifacts.

The paper's Sec. IV pipeline (browse -> parse/validate -> inherit/bind/
expand -> compose -> microbenchmark-bootstrap -> analyze -> emit runtime
IR) used to be re-implemented ad hoc by every CLI command.  A
:class:`ToolchainSession` owns the three shared resources instead:

* the :class:`~repro.repository.ModelRepository` (model search path),
* one :class:`~repro.diagnostics.DiagnosticSink` every stage appends to
  (with stage provenance on each diagnostic),
* an :class:`~repro.obs.Observer` receiving per-stage timings and
  counters.

Stages form an explicit DAG (:data:`STAGES`)::

    load -> validate
    load -> inherit
    load -> compose -> analyze -> emit_ir
                   \\-> bootstrap
                   \\-> doctor   (repository scope "*" skips compose)

Requesting a stage (:meth:`ToolchainSession.request`, or the typed
convenience wrappers) first requests its dependencies, so ``emit_ir``
transparently reuses the cached composition.  Every stage result is
memoized under a **content fingerprint**: a SHA-256 over the transitive
``.xpdl`` source texts the stage consumed plus its frozen options.  A
repeated request with unchanged sources is a cache hit (counted as
``toolchain.cache.hits``); touching any transitively-referenced
descriptor — or changing a composer option — changes the fingerprint,
drops the stale entry, invalidates the repository's parsed-model cache
for the affected identifiers and recomputes (incremental recomposition).

A session may additionally be backed by a
:class:`~repro.toolchain.diskcache.PersistentStageCache`: on an
in-memory miss the key's disk record is consulted (guarded by the same
source fingerprint, so stale entries never resurface), and freshly
computed artifacts of the stages in :data:`PERSISTED_STAGES` are written
back.  A cache directory that cannot be written costs the reuse, never
the build: the session warns once (``XPDL0403``) and carries on.
This is what makes repeated ``xpdl build`` invocations — and the workers
of one parallel build — share work across process boundaries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from ..analysis import (
    REPOSITORY_SCOPE,
    DoctorReport,
    check_repository,
    check_system,
    count_cores,
    count_placeholders,
    downgrade_bandwidths,
    filter_model,
    lint_model,
    runtime_default_filter,
)
from ..composer import ComposedModel, Composer
from ..diagnostics import DiagnosticSink, SourceSpan
from ..inherit import InheritanceEngine
from ..ir import IRModel
from ..model import ModelElement
from ..obs import Observer, get_observer, use_observer
from ..repository import LoadedModel, ModelRepository
from ..schema import CORE_SCHEMA
from .diskcache import PersistentStageCache

#: Value types flowing through stages are deliberately plain: every stage
#: returns a small result object (or a toolchain artifact directly) so
#: downstream consumers stay decoupled from how the stage computed it.


@dataclass(frozen=True)
class StageSpec:
    """One named pipeline stage and its upstream dependencies."""

    name: str
    requires: tuple[str, ...] = ()


#: The Sec. IV pipeline as an explicit DAG.
STAGES: dict[str, StageSpec] = {
    "load": StageSpec("load"),
    "validate": StageSpec("validate", ("load",)),
    "inherit": StageSpec("inherit", ("load",)),
    "compose": StageSpec("compose", ("load",)),
    "analyze": StageSpec("analyze", ("compose",)),
    "emit_ir": StageSpec("emit_ir", ("analyze",)),
    "bootstrap": StageSpec("bootstrap", ("compose",)),
    "doctor": StageSpec("doctor", ("compose",)),
}

#: Stages whose artifacts are worth persisting across invocations.
#: ``load`` is cheap (one parse) and ``bootstrap`` models simulated
#: measurement runs, so neither goes to disk.
PERSISTED_STAGES: tuple[str, ...] = (
    "validate",
    "inherit",
    "compose",
    "analyze",
    "emit_ir",
    "doctor",
)


@dataclass
class ValidationResult:
    """Outcome of the ``validate`` stage for one descriptor."""

    identifier: str
    errors: int
    warnings: int
    placeholders: int

    def ok(self) -> bool:
        return self.errors == 0


@dataclass
class AnalysisResult:
    """Outcome of the ``analyze`` stage: the analyzed composition, a copy
    of the compose artifact carrying what the analysis derived."""

    composed: ComposedModel
    cores: int
    placeholders: int
    links_checked: int


@dataclass
class EmitResult:
    """Outcome of the ``emit_ir`` stage: the runtime model, opened over
    its one serialized v2 image (the Sec. IV run-time data structure)."""

    ir: IRModel
    #: Identifiers of the descriptors the composition read.
    referenced: tuple[str, ...]
    #: SHA-256 of the image bytes: the content address a disk cache
    #: stores the image under (``images/``).
    image_key: str
    dropped_attrs: int = 0
    dropped_elements: int = 0

    def ir_sha256(self) -> str:
        """SHA-256 of the serialized IR, which the image key is."""
        return self.image_key


@dataclass
class BootstrapResult:
    """Outcome of the ``bootstrap`` stage: one report per machine."""

    reports: list[tuple[str, Any]] = field(default_factory=list)

    @property
    def total_runs(self) -> int:
        return sum(len(report.runs) for _name, report in self.reports)


@dataclass
class _CacheEntry:
    value: Any
    sources: tuple[str, ...]
    fingerprint: str


#: Sentinel distinguishing "no persisted artifact" from a None value.
_DISK_MISS = object()


def _freeze(value: Any) -> Any:
    """Deterministic hashable form of a stage option value."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return repr(value)


class ToolchainSession:
    """Owns the repository, diagnostics sink and stage cache for one run.

    Commands and library callers request artifacts through the typed
    wrappers (:meth:`compose`, :meth:`emit_ir`, ...); within one session
    each real computation happens at most once per distinct source
    fingerprint, however many downstream consumers ask for it.
    """

    def __init__(
        self,
        repository: ModelRepository | None = None,
        *,
        include: tuple[str, ...] | list[str] = (),
        sink: DiagnosticSink | None = None,
        observer: Observer | None = None,
        validate: bool = True,
        disk_cache: PersistentStageCache | None = None,
    ) -> None:
        if repository is None:
            from ..modellib import standard_repository

            repository = standard_repository(*include, validate=validate)
        self.repository = repository
        self.sink = sink if sink is not None else DiagnosticSink()
        self.observer = observer if observer is not None else get_observer()
        self.disk_cache = disk_cache
        self._cache: dict[tuple, _CacheEntry] = {}
        self._invalidation_hooks: list[Callable[[str, str], None]] = []
        # Plain counters so cache_stats() works even with a null observer.
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._disk_hits = 0
        self._disk_stores = 0
        self._warned_unwritable = False

    # -- the generic stage protocol -----------------------------------------
    def request(self, stage: str, identifier: str, **options: Any) -> Any:
        """Return the artifact of ``stage`` for ``identifier``.

        Memoized by (stage, identifier, options, source fingerprint);
        dependencies run first per :data:`STAGES`.
        """
        if stage not in STAGES:
            raise KeyError(f"unknown toolchain stage {stage!r}")
        obs = self.observer
        options_key = _freeze(options)
        key = (stage, identifier, options_key)
        entry = self._cache.get(key)
        if entry is not None:
            if self._fingerprint(entry.sources, options_key) == entry.fingerprint:
                self._hits += 1
                obs.count("toolchain.cache.hits")
                obs.count(f"toolchain.cache.hits.{stage}")
                return entry.value
            self._invalidations += 1
            obs.count("toolchain.cache.invalidations")
            obs.mark(
                "toolchain.cache.invalidate", stage=stage, identifier=identifier
            )
            del self._cache[key]
            self.repository.invalidate(entry.sources)
            self._fire_invalidation(stage, identifier)
        persistable = (
            self.disk_cache is not None and stage in PERSISTED_STAGES
        )
        if persistable:
            # The disk cache counts what it finds (corrupt records, write
            # errors) on the active observer: make that this session's.
            with use_observer(obs):
                value = self._disk_lookup(stage, identifier, options_key)
            if value is not _DISK_MISS:
                return value
        self._misses += 1
        obs.count("toolchain.cache.misses")
        obs.count(f"toolchain.cache.misses.{stage}")
        runner = getattr(self, f"_run_{stage}")
        with use_observer(obs), obs.stage(
            f"toolchain.{stage}", identifier=identifier
        ), self.sink.stage(stage):
            value, sources = runner(identifier, **options)
        sources = tuple(sources)
        fingerprint = self._fingerprint(sources, options_key)
        self._cache[key] = _CacheEntry(value, sources, fingerprint)
        if persistable:
            assert self.disk_cache is not None
            with use_observer(obs):
                stored = self.disk_cache.store(
                    stage, identifier, repr(options_key), fingerprint, sources, value
                )
            if stored:
                self._disk_stores += 1
                obs.count("toolchain.diskcache.stores")
            elif self.disk_cache.write_error is not None:
                self._warn_unwritable(self.disk_cache.write_error)
        return value

    def _warn_unwritable(self, exc: OSError) -> None:
        """Warn once per session that the cache directory takes no writes."""
        if self._warned_unwritable:
            return
        self._warned_unwritable = True
        assert self.disk_cache is not None
        self.sink.warning(
            "XPDL0403",
            f"persistent cache {self.disk_cache.root} is not writable ({exc}); "
            "building without storing stage artifacts",
            SourceSpan.unknown(self.disk_cache.root),
        )

    def _disk_lookup(self, stage: str, identifier: str, options_key: Any) -> Any:
        """Serve a stage from the persistent cache, or :data:`_DISK_MISS`.

        A disk entry is honoured only when its recorded source
        fingerprint matches the *live* repository texts — the same
        freshness rule the in-memory cache applies — so an edited
        descriptor invalidates its persisted dependents implicitly.
        """
        assert self.disk_cache is not None
        obs = self.observer
        entry = self.disk_cache.lookup(stage, identifier, repr(options_key))
        if entry is None:
            return _DISK_MISS
        if self._fingerprint(entry.sources, options_key) != entry.fingerprint:
            obs.count("toolchain.diskcache.stale")
            return _DISK_MISS
        ok, value = self.disk_cache.load(entry)
        if not ok:
            obs.count("toolchain.diskcache.corrupt")
            return _DISK_MISS
        # Records hold no sink: a composition served from disk reports to
        # this session, as a fresh compute would.
        composed = getattr(value, "composed", value)
        if isinstance(composed, ComposedModel):
            composed.sink = self.sink
        self._disk_hits += 1
        obs.count("toolchain.diskcache.hits")
        obs.count(f"toolchain.diskcache.hits.{stage}")
        self._cache[(stage, identifier, options_key)] = _CacheEntry(
            value, entry.sources, entry.fingerprint
        )
        return value

    def _fingerprint(self, sources: tuple[str, ...], options_key: Any) -> str:
        """SHA-256 over the current texts of ``sources`` plus the options.

        ``source_text`` degrades to the last-known-good copy on *transient*
        fetch failures (and an offline mirror serves identical bytes), so a
        flaky or dead remote never poisons the fingerprint: cached stage
        artifacts stay valid exactly when the descriptor texts they consumed
        are unchanged.  Store notices raised along the way (mirror serves,
        breaker trips) surface on this session's sink.
        """
        h = hashlib.sha256()
        h.update(repr(options_key).encode("utf-8"))
        # Fingerprinting happens on the cache-hit fast path, outside any
        # stage scope; activate the session observer so store activity
        # (mirror hits, degraded fetches) is still accounted.
        with use_observer(self.observer):
            for ident in sources:
                text = self.repository.source_text(ident, sink=self.sink)
                h.update(b"\0")
                h.update(ident.encode("utf-8"))
                h.update(b"\0")
                h.update(b"<missing>" if text is None else text.encode("utf-8"))
        return h.hexdigest()

    def invalidate(self) -> None:
        """Drop every cached stage result and the repository's caches."""
        dropped = [(stage, ident) for stage, ident, _opts in self._cache]
        self._cache.clear()
        self.repository.invalidate()
        for stage, ident in dropped:
            self._fire_invalidation(stage, ident)

    # -- invalidation hooks ----------------------------------------------------
    def add_invalidation_hook(
        self, hook: Callable[[str, str], None]
    ) -> None:
        """Call ``hook(stage, identifier)`` whenever a cached stage entry is
        dropped because its source fingerprint no longer matches the live
        descriptor texts.  Long-lived consumers (the model service hosting
        compiled :class:`~repro.runtime.index.IRIndex` es, say) use this to
        retire derived state eagerly instead of discovering the edit on
        their next fingerprint probe."""
        self._invalidation_hooks.append(hook)

    def _fire_invalidation(self, stage: str, identifier: str) -> None:
        for hook in self._invalidation_hooks:
            hook(stage, identifier)

    # -- typed wrappers -------------------------------------------------------
    def load(self, identifier: str) -> LoadedModel:
        return self.request("load", identifier)

    def validate(self, identifier: str) -> ValidationResult:
        return self.request("validate", identifier)

    def inherit(self, identifier: str) -> ModelElement:
        return self.request("inherit", identifier)

    def compose(self, identifier: str, **options: Any) -> ComposedModel:
        return self.request("compose", identifier, **options)

    def analyze(self, identifier: str, **options: Any) -> AnalysisResult:
        return self.request("analyze", identifier, **options)

    def emit_ir(
        self, identifier: str, *, keep_all: bool = False, **options: Any
    ) -> EmitResult:
        return self.request("emit_ir", identifier, keep_all=keep_all, **options)

    def doctor(
        self,
        identifier: str = REPOSITORY_SCOPE,
        *,
        suppress: tuple[str, ...] | list[str] = (),
    ) -> DoctorReport:
        """Doctor findings for one system, or — with the default
        :data:`~repro.analysis.REPOSITORY_SCOPE` sentinel — for the whole
        repository (cross-descriptor rules)."""
        return self.request("doctor", identifier, suppress=tuple(suppress))

    def bootstrap(
        self,
        identifier: str,
        *,
        seed: int = 0,
        noise: float = 0.05,
        repetitions: int = 5,
        force: bool = False,
    ) -> BootstrapResult:
        return self.request(
            "bootstrap",
            identifier,
            seed=seed,
            noise=noise,
            repetitions=repetitions,
            force=force,
        )

    # -- stage runners --------------------------------------------------------
    def _run_load(self, identifier: str) -> tuple[LoadedModel, tuple[str, ...]]:
        lm = self.repository.load(identifier, self.sink)
        return lm, (identifier,)

    def _run_validate(
        self, identifier: str
    ) -> tuple[ValidationResult, tuple[str, ...]]:
        before_errors = self.sink.error_count
        before_warnings = self.sink.warning_count
        lm = self.request("load", identifier)
        # Schema validation already ran at load time when the repository
        # validates on parse; avoid emitting every diagnostic twice.
        if not self.repository.validate:
            from ..schema import SchemaValidator

            SchemaValidator().validate(lm.model, self.sink)
        lint_model(lm.model, self.sink)
        result = ValidationResult(
            identifier=identifier,
            errors=self.sink.error_count - before_errors,
            warnings=self.sink.warning_count - before_warnings,
            placeholders=count_placeholders(lm.model),
        )
        return result, (identifier,)

    def _run_inherit(
        self, identifier: str
    ) -> tuple[ModelElement, tuple[str, ...]]:
        self.request("load", identifier)
        resolved = InheritanceEngine(self.repository).resolve(
            identifier, self.sink
        )
        closure = self.repository.load_closure(identifier, self.sink)
        return resolved, tuple(sorted(closure) or (identifier,))

    def _run_compose(
        self,
        identifier: str,
        *,
        bindings: Mapping | None = None,
        expand: bool = True,
        substitute: bool = True,
    ) -> tuple[ComposedModel, tuple[str, ...]]:
        self.request("load", identifier)
        composer = Composer(
            self.repository, expand=expand, substitute=substitute
        )
        composed = composer.compose(identifier, self.sink, bindings=bindings)
        return composed, composed.referenced or (identifier,)

    def _run_analyze(
        self, identifier: str, **compose_options: Any
    ) -> tuple[AnalysisResult, tuple[str, ...]]:
        # Derive on a copy: the compose artifact stays as composed, so the
        # doctor and every other reader of it see the same tree whether
        # or not analyze ran first.
        composed = self.request("compose", identifier, **compose_options)
        composed = replace(composed, root=composed.root.clone())
        links = downgrade_bandwidths(composed.root, self.sink)
        lint = lint_model(composed.root, self.sink)
        cores = count_cores(composed.root)
        self.observer.count("analysis.cores", cores)
        result = AnalysisResult(
            composed=composed,
            cores=cores,
            placeholders=lint.placeholders,
            links_checked=len(links),
        )
        return result, composed.referenced or (identifier,)

    def _run_emit_ir(
        self,
        identifier: str,
        *,
        keep_all: bool = False,
        **compose_options: Any,
    ) -> tuple[EmitResult, tuple[str, ...]]:
        composed = self.request("analyze", identifier, **compose_options).composed
        root = composed.root
        dropped_attrs = dropped_elements = 0
        if not keep_all:
            root, dropped_attrs, dropped_elements = filter_model(
                root, runtime_default_filter()
            )
        # Serialize once; the artifact is the model opened over those bytes.
        image = IRModel.from_model(
            root,
            {
                "system": identifier,
                "tool": "xpdl compose",
                "schema": f"{CORE_SCHEMA.name} {CORE_SCHEMA.version}",
            },
        ).to_bytes()
        if self.disk_cache is not None:
            try:
                self.disk_cache.store_image(image)
            except OSError as exc:
                # A read-only or full cache directory costs the image
                # file, never the build.
                self._warn_unwritable(exc)
        result = EmitResult(
            ir=IRModel.from_bytes(image),
            referenced=composed.referenced,
            image_key=hashlib.sha256(image).hexdigest(),
            dropped_attrs=dropped_attrs,
            dropped_elements=dropped_elements,
        )
        return result, composed.referenced or (identifier,)

    def _run_doctor(
        self,
        identifier: str,
        *,
        suppress: tuple[str, ...] = (),
    ) -> tuple[DoctorReport, tuple[str, ...]]:
        if identifier == REPOSITORY_SCOPE:
            report = check_repository(
                self.repository, self.sink, suppress=suppress
            )
            # The repository pass reads every descriptor, so the artifact
            # is keyed over the whole index: touching any file recomputes.
            sources = tuple(sorted(self.repository.index()))
            return report, sources or (identifier,)
        composed = self.request("compose", identifier)
        report = check_system(
            identifier,
            composed.root,
            self.repository,
            self.sink,
            suppress=suppress,
        )
        return report, composed.referenced or (identifier,)

    def _run_bootstrap(
        self,
        identifier: str,
        *,
        seed: int = 0,
        noise: float = 0.05,
        repetitions: int = 5,
        force: bool = False,
    ) -> tuple[BootstrapResult, tuple[str, ...]]:
        from ..microbench import bootstrap_instruction_model
        from ..model import Instructions, Microbenchmarks
        from ..simhw import PowerMeter, testbed_from_model

        composed = self.request("compose", identifier)
        bed = testbed_from_model(composed.root)
        meter = PowerMeter(seed=seed, noise_std_w=noise)
        result = BootstrapResult()
        for machine in bed.machines.values():
            isa = machine.truth.isa_name
            instrs = next(
                (
                    i
                    for i in composed.root.find_all(Instructions)
                    if (i.name or i.ident) == isa
                ),
                None,
            )
            if instrs is None:
                continue
            suite = next(
                iter(composed.root.find_all(Microbenchmarks)), None
            )
            _model, report = bootstrap_instruction_model(
                instrs,
                machine,
                suite=suite,
                meter=meter,
                repetitions=repetitions,
                force=force,
                sink=self.sink,
            )
            result.reports.append((machine.name, report))
        return result, composed.referenced or (identifier,)

    # -- reporting ------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/invalidation totals for this session's stage cache."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "invalidations": self._invalidations,
            "entries": len(self._cache),
            "disk_hits": self._disk_hits,
            "disk_stores": self._disk_stores,
        }

    def render_diagnostics(self) -> str:
        """Render every collected diagnostic (with stage provenance) once."""
        return self.sink.render()
