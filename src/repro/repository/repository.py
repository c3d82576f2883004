"""The XPDL model repository: indexing, lookup and recursive loading.

A repository is an ordered list of :class:`DescriptorStore`s (the model
search path, possibly ending in simulated remote stores).  Each ``.xpdl``
descriptor file contributes its root element's identifier — ``name`` for
meta-models, ``id`` for concrete models — to the index; identifiers must be
unique across the repository ("the strings used as name and id should be
unique across the XPDL repository for reference nonambiguity", Sec. III-A).

:meth:`ModelRepository.load_closure` performs the recursive reference
browsing of Sec. IV: starting from a concrete model it follows every
``type=``/``extends=``/``mb=``/``instruction_set=`` reference, parses each
referenced descriptor once, detects reference cycles and returns the full
set of models needed to compose the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..diagnostics import (
    Diagnostic,
    DiagnosticSink,
    ResolutionError,
    SourceSpan,
    TransientFetchError,
)
from ..model import ModelElement, from_document
from ..obs import get_observer
from ..schema import SchemaValidator
from ..xpdlxml import parse_xml, root_start_tag
from .store import DescriptorStore, MemoryStore, iter_store_chain

#: Attributes whose value references another descriptor by identifier.
REFERENCE_ATTRS = ("type", "mb", "instruction_set", "power_domain")

#: References whose target gets *folded into* the referring tree at
#: composition time.  Only these can form true composition cycles; ``mb``/
#: ``instruction_set``/``power_domain`` are navigational by-name links and
#: may legally be mutual (an instruction set and its microbenchmark suite
#: reference each other, Listings 14/15).
STRUCTURAL_REFERENCE_ATTRS = ("type",)


@dataclass(slots=True)
class IndexEntry:
    """Where one descriptor lives and what it defines.

    ``text`` keeps the descriptor body the indexer already downloaded, so
    :meth:`ModelRepository.load` never pays a second (possibly remote,
    possibly failing) fetch for it; :meth:`ModelRepository.invalidate`
    drops the index and therefore the kept texts.
    """

    identifier: str
    path: str
    store: DescriptorStore
    root_tag: str
    text: str | None = field(default=None, repr=False)


@dataclass
class LoadedModel:
    """A parsed descriptor plus provenance."""

    identifier: str
    model: ModelElement
    entry: IndexEntry | None
    text: str = field(repr=False, default="")
    #: The errors its parse and validation emitted (kept because a
    #: cached load emits nothing into the next caller's sink).
    errors: tuple[Diagnostic, ...] = field(repr=False, default=())


class ModelRepository:
    """Ordered multi-store repository with an identifier index."""

    def __init__(
        self,
        stores: list[DescriptorStore] | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.stores: list[DescriptorStore] = list(stores or [])
        self.validate = validate
        self._validator = SchemaValidator()
        self._index: dict[str, IndexEntry] | None = None
        # Lower-cased identifier -> its first spelling in the index, built
        # with it: the "did you mean" lookup of an unresolvable load.
        self._folded: dict[str, str] = {}
        self._models: dict[str, LoadedModel] = {}
        self._inline_store = MemoryStore(url="inline:")

    # -- store management -----------------------------------------------------
    def add_store(self, store: DescriptorStore) -> None:
        self.stores.append(store)
        self._index = None  # force re-index

    def add_inline(self, path: str, text: str) -> None:
        """Register descriptor text directly (tests, generated models)."""
        if self._inline_store not in self.stores:
            self.stores.insert(0, self._inline_store)
        self._inline_store.put(path, text)
        self._index = None

    # -- index ------------------------------------------------------------------
    def _root_identifier(self, text: str, path: str) -> tuple[str | None, str]:
        """Extract (identifier, root tag) cheaply from descriptor text.

        The root start tag is read by pattern; only a document it cannot
        vouch for (see :func:`~repro.xpdlxml.root_start_tag`) is parsed.
        """
        start = root_start_tag(text)
        if start is None:
            root = parse_xml(text, source_name=path).root
            return root.get("name") or root.get("id"), root.tag
        tag, attrs = start
        return attrs.get("name") or attrs.get("id"), tag

    def index(self, sink: DiagnosticSink | None = None) -> dict[str, IndexEntry]:
        """Build (or return cached) identifier -> location index."""
        if self._index is not None:
            return self._index
        obs = get_observer()
        sink = sink if sink is not None else DiagnosticSink()
        index: dict[str, IndexEntry] = {}
        for store in self.stores:
            try:
                paths = store.list_paths()
            except TransientFetchError as exc:
                obs.count("repo.index.unreachable_stores")
                sink.warning(
                    "XPDL0202",
                    f"store {store.url} unreachable while indexing: {exc}",
                    SourceSpan.unknown(store.url),
                    "its descriptors are missing from this index; retry, or "
                    "warm an offline mirror while the store is reachable",
                )
                continue
            for path in paths:
                try:
                    text = store.fetch(path)
                except TransientFetchError as exc:
                    obs.count("repo.index.fetch_failures")
                    sink.warning(
                        "XPDL0203",
                        f"could not fetch descriptor {path} from "
                        f"{store.url}: {exc}",
                        SourceSpan.unknown(path),
                        "the descriptor is omitted from this index; "
                        "references to it will not resolve",
                    )
                    continue
                except ResolutionError as exc:
                    # Listed but gone: permanent, but still worth surfacing —
                    # a vanished descriptor is never silently dropped.
                    sink.warning(
                        "XPDL0203",
                        f"descriptor {path} listed by {store.url} but not "
                        f"fetchable: {exc}",
                        SourceSpan.unknown(path),
                    )
                    continue
                ident, tag = self._root_identifier(text, path)
                if ident is None:
                    sink.warning(
                        "XPDL0200",
                        f"descriptor {path} in {store.url} has no name/id",
                        SourceSpan.unknown(path),
                    )
                    continue
                if ident in index:
                    prev = index[ident]
                    # First store on the search path wins (shadowing),
                    # like PATH lookup; shadowed copies are reported.
                    sink.warning(
                        "XPDL0201",
                        f"identifier {ident!r} in {store.url}{path} shadows "
                        f"{prev.store.url}{prev.path}",
                        SourceSpan.unknown(path),
                    )
                    continue
                index[ident] = IndexEntry(ident, path, store, tag, text)
        self._index = index
        self._folded = {}
        for ident in index:
            self._folded.setdefault(ident.lower(), ident)
        self._drain_store_notices(sink)
        if obs.enabled:
            obs.count("repo.index.builds")
            obs.count("repo.index.descriptors", len(index))
        return index

    def identifiers(self) -> list[str]:
        return sorted(self.index())

    def systems(self) -> list[str]:
        """Identifiers of the concrete ``<system>`` descriptors — the
        compilation units of a batch build (``xpdl build``)."""
        return [
            ident
            for ident, entry in sorted(self.index().items())
            if entry.root_tag == "system"
        ]

    def __contains__(self, identifier: str) -> bool:
        return identifier in self.index()

    # -- loading ----------------------------------------------------------------
    def load(
        self,
        identifier: str,
        sink: DiagnosticSink | None = None,
    ) -> LoadedModel:
        """Load and parse the descriptor defining ``identifier``."""
        obs = get_observer()
        if identifier in self._models:
            obs.count("repo.load.cached")
            return self._models[identifier]
        sink = sink if sink is not None else DiagnosticSink()
        # Pass the sink through: if this load triggers the lazy first index
        # build, its diagnostics (unreachable stores, mirror degradation)
        # must land here, not in a throwaway sink.
        entry = self.index(sink).get(identifier)
        if entry is None:
            close = self._folded.get(identifier.lower())
            hint = f"; did you mean {close!r}?" if close else ""
            raise ResolutionError(
                f"no descriptor defines {identifier!r} in the repository{hint}",
                sink.diagnostics,
            )
        if entry.text is not None:
            # The indexer already downloaded this descriptor; loading it
            # again must not pay (or risk) a second remote fetch.
            text = entry.text
            obs.count("repo.load.from_index")
        else:
            try:
                text = entry.store.fetch(entry.path)
            finally:
                self._drain_store_notices(sink)
        obs.count("repo.load.parsed")
        errors_before = sink.error_count
        doc = parse_xml(text, source_name=f"{entry.store.url}{entry.path}", sink=sink)
        model = from_document(doc)
        if self.validate:
            self._validator.validate(model, sink)
        errors: tuple[Diagnostic, ...] = ()
        if sink.error_count > errors_before:
            errors = tuple(sink.errors()[errors_before:])
        loaded = LoadedModel(identifier, model, entry, text, errors)
        self._models[identifier] = loaded
        return loaded

    def load_model(self, identifier: str, sink: DiagnosticSink | None = None) -> ModelElement:
        return self.load(identifier, sink).model

    # -- recursive closure ---------------------------------------------------------
    def references_of(self, root: ModelElement) -> set[str]:
        """All identifiers referenced from ``root``'s subtree.

        Includes ``type``/``mb``/``instruction_set``/``power_domain``
        attribute values and every ``extends`` supertype.  Values that do not
        match any repository identifier are returned too; the caller decides
        whether they are category tags (``type="DDR3"``) or dangling refs.
        """
        refs: set[str] = set()
        for elem in root.walk():
            for attr in REFERENCE_ATTRS:
                value = elem.attrs.get(attr)
                if value:
                    refs.add(value.strip())
            refs.update(elem.extends)
        return refs

    def typed_references_of(self, root: ModelElement) -> set[tuple[str, bool]]:
        """Like :meth:`references_of`, tagging each ref as structural."""
        refs: set[tuple[str, bool]] = set()
        for elem in root.walk():
            for attr in REFERENCE_ATTRS:
                value = elem.attrs.get(attr)
                if value:
                    refs.add(
                        (value.strip(), attr in STRUCTURAL_REFERENCE_ATTRS)
                    )
            for sup in elem.extends:
                refs.add((sup, True))
        return refs

    def load_closure(
        self,
        identifier: str,
        sink: DiagnosticSink | None = None,
    ) -> dict[str, LoadedModel]:
        """Load ``identifier`` and, recursively, everything it references.

        Returns a mapping of identifier -> LoadedModel for all resolvable
        references.  Unresolvable references are recorded as NOTE diagnostics
        (they are frequently plain category strings such as ``type="DDR3"``
        or ``type="CMX"``); reference cycles are reported as errors but do
        not loop.
        """
        sink = sink if sink is not None else DiagnosticSink()
        obs = get_observer()
        loaded: dict[str, LoadedModel] = {}
        in_progress: list[str] = []

        def visit(ident: str, structural: bool) -> None:
            if ident in in_progress:
                if structural:
                    cycle = " -> ".join(
                        in_progress[in_progress.index(ident):] + [ident]
                    )
                    sink.error(
                        "XPDL0210",
                        f"reference cycle between descriptors: {cycle}",
                        SourceSpan.unknown(ident),
                    )
                return  # navigational back-reference: legal, already loading
            if ident in loaded:
                return
            try:
                lm = self.load(ident, sink)
            except TransientFetchError as exc:
                # A flaky fetch is NOT a category tag: surface it loudly so
                # the degraded composition is never mistaken for a clean one.
                obs.count("repo.refs.transient")
                sink.warning(
                    "XPDL0212",
                    f"reference {ident!r} could not be fetched "
                    f"(transient failure): {exc}",
                    SourceSpan.unknown(ident),
                    "the composition may be incomplete; retry, or warm the "
                    "offline mirror while the store is reachable",
                )
                return
            except ResolutionError:
                obs.count("repo.refs.unresolved")
                sink.note(
                    "XPDL0211",
                    f"reference {ident!r} has no descriptor "
                    "(treated as a category tag)",
                    SourceSpan.unknown(ident),
                )
                return
            obs.count("repo.refs.resolved")
            in_progress.append(ident)
            loaded[ident] = lm
            for ref, is_structural in sorted(self.typed_references_of(lm.model)):
                visit(ref, is_structural)
            in_progress.pop()

        visit(identifier, True)
        return loaded

    # -- cache invalidation ---------------------------------------------------------
    def invalidate(self, identifiers: Iterable[str] | None = None) -> None:
        """Drop cached parses (and the index) so changed sources re-read.

        With ``identifiers`` only those parsed models are dropped; without,
        everything is.  The identifier index is rebuilt either way because a
        changed descriptor may define a different identifier.
        """
        if identifiers is None:
            self._models.clear()
        else:
            for ident in identifiers:
                self._models.pop(ident, None)
        self._index = None

    def source_text(
        self, identifier: str, *, sink: DiagnosticSink | None = None
    ) -> str | None:
        """Current on-store text of the descriptor defining ``identifier``.

        Bypasses the parsed-model cache — this is what cache fingerprinting
        uses to notice edits underneath a warm repository.  A *transient*
        fetch failure falls back to the text the indexer downloaded (the
        last-known-good copy), so an unreachable remote — or a mirror
        serving identical bytes — never poisons stage-cache fingerprints;
        only a permanent not-found reads as missing.  With ``sink`` given,
        store notices (mirror degradation etc.) are surfaced on it.
        """
        entry = self.index(sink).get(identifier)
        if entry is None:
            return None
        try:
            return entry.store.fetch(entry.path)
        except TransientFetchError:
            get_observer().count("repo.source_text.degraded")
            return entry.text
        except ResolutionError:
            return None
        finally:
            if sink is not None:
                self._drain_store_notices(sink)

    # -- store notices ---------------------------------------------------------
    def _drain_store_notices(self, sink: DiagnosticSink) -> None:
        """Surface out-of-band store conditions (mirror serves, breaker
        trips) as diagnostics on ``sink``."""
        for store in self.stores:
            for notice in store.drain_notices():
                span = SourceSpan.unknown(notice.path or store.url)
                if notice.warning:
                    sink.warning("XPDL0204", notice.message, span)
                else:
                    sink.note("XPDL0204", notice.message, span)

    # -- statistics -----------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        idx = self.index()
        return {
            "stores": len(self.stores),
            "descriptors": len(idx),
            "loaded": len(self._models),
        }

    def store_stats(self) -> list[dict]:
        """Per-store health rows (resilience wrappers unrolled), for
        ``xpdl repo stats``."""
        rows: list[dict] = []
        for store in self.stores:
            for layer in iter_store_chain(store):
                stats = layer.stats()
                if stats or layer is store:
                    rows.append({"url": layer.url, **stats})
        return rows
