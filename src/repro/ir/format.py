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
  index.  Every :class:`IRModel` is opened over one such image —
  :meth:`IRModel.from_model`, :meth:`IRModel.from_json` and
  :meth:`IRModel.from_nodes` serialize first — and :meth:`IRModel.load`
  mmaps a file and views every table in place; nodes, strings and
  analyses materialize lazily on first touch, so opening a model costs
  O(file open), not O(model).  Files of the retired record-only format
  (magic ``XPDLRT01``) are refused with a
  :class:`~repro.diagnostics.QueryError` that says to rebuild them.
* **JSON** (debugging, interchange).

Both formats round-trip exactly.  A v2 image whose *index* sections are
missing or fail their checksums has them rebuilt from its core sections
with a loud :class:`~repro.ir.image.XirImageWarning` — corruption is
never answered with wrong query results; core-section damage raises
:class:`~repro.diagnostics.QueryError`.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

from ..diagnostics import QueryError
from ..model import ELEMENT_REGISTRY, ModelElement
from ..obs import get_observer
from .image import _NO_PARENT, MAGIC_V2, IRImage, build_image, open_image

MAGIC = MAGIC_V2
MAGIC_V1 = b"XPDLRT01"

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

    Behaves like a ``list[IRNode]`` for length, integer indexing and
    iteration, but builds each :class:`IRNode` from the record sections
    on first touch and interns it — untouched models stay as mapped
    pages."""

    __slots__ = ("_image", "_memo")

    def __init__(self, image: IRImage) -> None:
        self._image = image
        self._memo: list[IRNode | None] = [None] * image.n

    def __len__(self) -> int:
        return len(self._memo)

    def __iter__(self):
        for i in range(len(self._memo)):
            yield self[i]

    def __getitem__(self, i: int) -> IRNode:
        node = self._memo[i]
        if node is None:
            if i < 0:
                i += len(self._memo)
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
    """The flattened runtime model, opened over its ``XPDLRT02`` image."""

    def __init__(self, image: IRImage) -> None:
        self._image = image
        self.nodes = _LazyNodes(image)
        self.meta = image.meta
        self._index = None  # lazily adopted IRIndex (the IR is read-only)

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_model(
        root: ModelElement, meta: dict[str, str] | None = None
    ) -> "IRModel":
        """Flatten a model tree in pre-order, serialize it and open the
        image."""
        records: list[tuple[str, int | None, dict[str, str]]] = []
        stack: list[tuple[ModelElement, int | None]] = [(root, None)]
        while stack:
            elem, parent = stack.pop()
            if elem.children:
                stack += zip(reversed(elem.children), repeat(len(records)))
            records.append((elem.kind, parent, elem.attrs))
        obs = get_observer()
        if obs.enabled:
            obs.count("ir.emits")
            obs.count("ir.nodes", len(records))
        return IRModel._from_records(records, meta)

    @staticmethod
    def from_nodes(
        nodes: Iterable[IRNode], meta: dict[str, str] | None = None
    ) -> "IRModel":
        """Serialize ``nodes`` (in node-index order; each node's children
        are the nodes naming it as parent, in node order) and open the
        image."""
        return IRModel._from_records(
            ((n.kind, n.parent, n.attrs) for n in nodes), meta
        )

    @staticmethod
    def _from_records(records, meta: dict[str, str] | None) -> "IRModel":
        """Serialize ``(kind, parent, attrs)`` records and open the image;
        only this serialization counts ``ir.bytes``."""
        blob = build_image(records, meta or {})
        get_observer().count("ir.bytes", len(blob))
        return IRModel(IRImage(blob))

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
        """The first node with id ``ident``, from the image's ``IDTB``."""
        idx = self._image.id_index(ident)
        return self.nodes[idx] if idx is not None else None

    def index(self):
        """The compiled query index, adopted from the image's index
        sections — zero construction, once per model."""
        if self._index is None:
            from ..runtime.index import IRIndex  # late: avoids an import cycle

            self._index = IRIndex(self)
        return self._index

    def approx_size_bytes(self) -> int:
        """Rough resident footprint of this IR plus its compiled index.

        Used by the model service's LRU byte accounting: exactness does
        not matter (eviction compares models against each other and a
        budget), but the estimate must be monotone in model size and
        cheap.  A model is dominated by its image plus whatever lazily
        materialized; ~3x the image size bounds a fully-touched model
        without walking it.  The service charges its memo of encoded
        node texts on top of this, a fixed allowance per node
        (``repro.service.core.NODE_TEXT_BYTES``).
        """
        return 4096 + 3 * self._image.nbytes

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
        """The model's v2 image (records + index sections): deterministic
        for a given model, and read without touching a lazy structure."""
        return bytes(self._image.buffer)

    @staticmethod
    def from_bytes(data) -> "IRModel":
        """Decode a binary image, viewing the buffer in place.

        ``data`` may be bytes or any buffer (an ``mmap`` in particular);
        the model keeps views into it, so the buffer must outlive the
        model — which reference counting guarantees."""
        if bytes(memoryview(data)[:8]) == MAGIC_V1:
            raise QueryError(
                "XPDL runtime model file uses the retired XPDLRT01 format; "
                "rebuild it with the toolchain (e.g. `xpdl compose`)"
            )
        model = IRModel(open_image(data))  # raises QueryError on core damage
        get_observer().count("ir.loads")
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
        return IRModel._from_records(
            [(d["kind"], d["parent"], d["attrs"]) for d in data["nodes"]],
            data.get("meta"),
        )

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
