"""The light-weight runtime model representation and its file formats.

Sec. IV: the processing tool "builds a light-weight run-time data structure
for the composed model that is finally written into a file"; the application
loads it at startup through the query API.

The IR flattens the composed tree into arrays — a string pool plus one
record per node (kind, parent index, attribute name/value index pairs) — so
loading is a single linear scan with no XML parsing.  Two encodings are
understood:

* **binary** (magic ``XPDLRT02``, :mod:`repro.ir.image`): crc-checked,
  offset-addressed sections carrying the records *and* the compiled
  :class:`~repro.runtime.index.IRIndex` artifacts.  :meth:`IRModel.load`
  mmaps it and views every table in place; nodes, strings and analyses
  materialize lazily on first touch, so opening a model costs O(file
  open), not O(model).  Files of the retired record-only format (magic
  ``XPDLRT01``) are refused with a :class:`~repro.diagnostics.QueryError`
  that says to rebuild them.
* **JSON** (debugging, interchange).

Both formats round-trip exactly.  A v2 image whose *index* sections fail
their checksums degrades to a live index rebuild with a loud
:class:`~repro.ir.image.XirImageWarning` — corruption is never answered
with wrong query results; core-section damage raises
:class:`~repro.diagnostics.QueryError`.
"""

from __future__ import annotations

import json
import mmap
import warnings
from dataclasses import dataclass, field

from ..diagnostics import QueryError
from ..model import ELEMENT_REGISTRY, ModelElement
from ..obs import get_observer
from .image import IRImage, XirImageWarning, build_image

MAGIC = b"XPDLRT02"
MAGIC_V1 = b"XPDLRT01"
_NO_PARENT = 0xFFFFFFFF

#: JSON documents are accepted under either format tag — the JSON node
#: schema never changed across the binary version bump.
_JSON_FORMATS = (MAGIC.decode(), MAGIC_V1.decode())

@dataclass(slots=True)
class IRNode:
    """One flattened model element."""

    index: int
    kind: str
    parent: int | None
    attrs: dict[str, str]
    children: list[int] = field(default_factory=list)

    @property
    def ident(self) -> str | None:
        return self.attrs.get("id")

    @property
    def name(self) -> str | None:
        return self.attrs.get("name")

    def label(self) -> str:
        return self.name or self.ident or f"<{self.kind}#{self.index}>"


class _LazyNodes:
    """Node sequence over a mapped :class:`~repro.ir.image.IRImage`.

    Behaves like the eager ``list[IRNode]`` (len/index/slice/iterate) but
    builds each :class:`IRNode` from the record sections on first touch
    and interns it — untouched models stay as mapped pages."""

    __slots__ = ("_image", "_memo")

    def __init__(self, image: IRImage) -> None:
        self._image = image
        self._memo: list[IRNode | None] = [None] * image.n

    def __len__(self) -> int:
        return len(self._memo)

    def __iter__(self):
        for i in range(len(self._memo)):
            yield self[i]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._memo)))]
        if i < 0:
            i += len(self._memo)
        node = self._memo[i]
        if node is None:
            node = self._memo[i] = self._materialize(i)
        return node

    def _materialize(self, i: int) -> IRNode:
        im = self._image
        pool = im.pool
        pairs = im.attr_pairs
        lo, hi = im.attr_off[i], im.attr_off[i + 1]
        attrs: dict[str, str] = {}
        for j in range(lo, hi):
            attrs[pool[pairs[2 * j]]] = pool[pairs[2 * j + 1]]
        parent = im.parents[i]
        return IRNode(
            i,
            pool[im.kind_ids[i]],
            None if parent == _NO_PARENT else parent,
            attrs,
            list(im.child_idx[im.child_off[i] : im.child_off[i + 1]]),
        )


class IRModel:
    """The flattened runtime model (eager node list or mapped image)."""

    def __init__(self, nodes, meta: dict[str, str] | None = None):
        self.nodes = nodes
        self.meta = dict(meta or {})
        self._by_id: dict[str, int] | None = None
        self._index = None  # lazily built IRIndex (the IR is read-only)
        self._image: IRImage | None = None
        # Set when this model came from a persisted image *without* a
        # usable index (core-only or degraded): the live IRIndex
        # build then counts as an ``index.rebuilds`` — the startup tax
        # the image format exists to avoid.
        self._load_origin: str | None = None

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_model(
        root: ModelElement, meta: dict[str, str] | None = None
    ) -> "IRModel":
        nodes: list[IRNode] = []

        def rec(elem: ModelElement, parent: int | None) -> int:
            idx = len(nodes)
            node = IRNode(idx, elem.kind, parent, dict(elem.attrs))
            nodes.append(node)
            for child in elem.children:
                cidx = rec(child, idx)
                node.children.append(cidx)
            return idx

        rec(root, None)
        obs = get_observer()
        if obs.enabled:
            obs.count("ir.emits")
            obs.count("ir.nodes", len(nodes))
        return IRModel(nodes, meta)

    def to_model(self) -> ModelElement:
        """Rebuild a model object tree (for tooling; the runtime query API
        works on the IR directly)."""
        if not len(self.nodes):
            raise QueryError("empty IR model")
        elems: list[ModelElement] = []
        for node in self.nodes:
            elems.append(ELEMENT_REGISTRY.create(node.kind, node.attrs))
        for node in self.nodes:
            for cidx in node.children:
                elems[node.index].add(elems[cidx])
        return elems[0]

    # -- access ----------------------------------------------------------------
    @property
    def root(self) -> IRNode:
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> IRNode:
        return self.nodes[index]

    def children_of(self, node: IRNode) -> list[IRNode]:
        return [self.nodes[i] for i in node.children]

    def parent_of(self, node: IRNode) -> IRNode | None:
        return self.nodes[node.parent] if node.parent is not None else None

    def by_id(self, ident: str) -> IRNode | None:
        image = self._image
        if image is not None and image.index_ok:
            # Serve single lookups straight from the mapped IDTB section
            # (the image memoizes each id) — no full table.
            idx = image.id_index(ident)
        else:
            idx = self._id_table().get(ident)
        return self.nodes[idx] if idx is not None else None

    def _id_table(self) -> dict[str, int]:
        """The id → node-index table (first occurrence wins).

        Duplicate ids are resolved first-wins, but *loudly*: every
        shadowed occurrence bumps the ``ir.id_shadowed`` counter and
        leaves a mark naming the id and both nodes, so silent aliasing in
        composed models is visible in ``xpdl stats`` / traces.  The
        image writer builds its ``IDTB`` section from this table, so a
        model is counted once, when it is serialized, or on its first
        lookup if it never is.
        """
        if self._by_id is None:
            table: dict[str, int] = {}
            obs = get_observer()
            for n in self.nodes:
                nid = n.attrs.get("id")
                if nid is None:
                    continue
                kept = table.setdefault(nid, n.index)
                if kept != n.index:
                    obs.count("ir.id_shadowed")
                    if obs.enabled:
                        obs.mark(
                            "ir.id_shadowed",
                            id=nid,
                            kept_index=kept,
                            kept_kind=self.nodes[kept].kind,
                            shadowed_index=n.index,
                            shadowed_kind=n.kind,
                        )
            self._by_id = table
        return self._by_id

    def index(self):
        """The compiled query index (built once; the IR never mutates, so
        it is never invalidated).  Image-backed models serve the index
        straight from the mapped sections — zero construction."""
        if self._index is None:
            from ..runtime.index import IRIndex  # late: avoids an import cycle

            self._index = IRIndex(self)
        return self._index

    def approx_size_bytes(self) -> int:
        """Rough resident footprint of this IR plus its compiled index.

        Used by the model service's LRU byte accounting: exactness does
        not matter (eviction compares models against each other and a
        budget), but the estimate must be monotone in model size and
        cheap.  Image-backed models are dominated by the mapped file
        plus whatever lazily materialized; ~3x the file size bounds a
        fully-touched model without walking it.  For eager models the
        constants approximate CPython object headers for an
        :class:`IRNode` (+ its interned handle and index rows): ~200
        bytes of fixed overhead per node plus ~100 per attribute pair
        plus the string payloads themselves.  The service charges its
        memo of encoded node texts on top of this, a fixed allowance per
        node (``repro.service.core.NODE_TEXT_BYTES``).
        """
        if self._image is not None:
            return 4096 + 3 * self._image.nbytes
        total = 4096  # model object + tables overhead
        for node in self.nodes:
            total += 200 + 8 * len(node.children) + len(node.kind)
            for k, v in node.attrs.items():
                total += 100 + len(k) + len(v)
        for k, v in self.meta.items():
            total += 100 + len(k) + len(v)
        return total

    def walk(self, start: IRNode | None = None):
        """Pre-order traversal from ``start`` (default: root)."""
        stack = [start.index if start else 0]
        while stack:
            idx = stack.pop()
            node = self.nodes[idx]
            yield node
            stack.extend(reversed(node.children))

    # -- pickling (stage caches ship IRModels across processes) -------------
    def __getstate__(self):
        # A model pickles as its image: views into an mmap cannot cross
        # process boundaries, the bytes can, and they unpickle zero-copy.
        return {"image": self.to_bytes()}

    def __setstate__(self, state):
        self.__dict__.update(IRModel.from_bytes(state["image"]).__dict__)

    # -- binary encoding -----------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize as a v2 image (records + index sections).

        Deterministic for a given model.  A model opened from an intact
        image returns the identical bytes without touching a single lazy
        structure; only a real serialization counts ``ir.bytes``."""
        if self._image is not None and self._image.index_ok:
            return bytes(self._image.buffer)
        blob = build_image(self)
        get_observer().count("ir.bytes", len(blob))
        return blob

    @staticmethod
    def from_bytes(data) -> "IRModel":
        """Decode a binary image, viewing the buffer in place.

        ``data`` may be bytes or any buffer (an ``mmap`` in particular);
        the model keeps views into it, so the buffer must outlive the
        model — which reference counting guarantees."""
        head = bytes(memoryview(data)[:8])
        if head == MAGIC:
            return IRModel._from_image(data)
        if head == MAGIC_V1:
            raise QueryError(
                "XPDL runtime model file uses the retired XPDLRT01 format; "
                "rebuild it with the toolchain (e.g. `xpdl compose`)"
            )
        raise QueryError("not an XPDL runtime model file (bad magic)")

    @staticmethod
    def _from_image(data) -> "IRModel":
        image = IRImage(data)  # raises QueryError on core damage
        model = IRModel(_LazyNodes(image), image.meta)
        model._image = image
        obs = get_observer()
        if not image.index_ok:
            model._load_origin = f"degraded image ({image.index_problem})"
            warnings.warn(
                "XPDL v2 runtime image has unusable index sections "
                f"({image.index_problem}); rebuilding the index live — "
                "re-run the toolchain (or `xpdl cache clear`) to restore "
                "zero-copy startup",
                XirImageWarning,
                stacklevel=3,
            )
            if obs.enabled:
                obs.mark("index.degraded", problem=image.index_problem)
        obs.count("ir.loads")
        return model

    # -- JSON encoding -----------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "format": MAGIC.decode(),
                "meta": self.meta,
                "nodes": [
                    {
                        "kind": n.kind,
                        "parent": n.parent,
                        "attrs": n.attrs,
                    }
                    for n in self.nodes
                ],
            },
            indent=1,
        )

    @staticmethod
    def from_json(text: str) -> "IRModel":
        data = json.loads(text)
        if data.get("format") not in _JSON_FORMATS:
            raise QueryError("not an XPDL runtime model JSON document")
        nodes = [
            IRNode(i, d["kind"], d["parent"], dict(d["attrs"]))
            for i, d in enumerate(data["nodes"])
        ]
        for node in nodes:
            if node.parent is not None:
                nodes[node.parent].children.append(node.index)
        return IRModel(nodes, dict(data.get("meta", {})))

    # -- files --------------------------------------------------------------------------
    def save(self, path: str) -> None:
        if path.endswith(".json"):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.to_json())
        else:
            with open(path, "wb") as fh:
                fh.write(self.to_bytes())

    @staticmethod
    def load(path: str) -> "IRModel":
        if path.endswith(".json"):
            with open(path, "r", encoding="utf-8") as fh:
                return IRModel.from_json(fh.read())
        with open(path, "rb") as fh:
            try:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # empty file, exotic filesystems
                buf = fh.read()
        return IRModel.from_bytes(buf)
