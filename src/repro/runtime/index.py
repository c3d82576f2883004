"""The compiled query index over the runtime IR (paper Sec. IV).

Sec. IV makes the runtime query API the hot path: adaptive applications
introspect the light-weight model *inside* their optimization loops, so
queries must cost near nothing.  :class:`IRIndex` is built once per IR
(the IR is read-only by design, so nothing here ever invalidates) and
turns the naive tree walks into table lookups:

* **pre-order numbering + subtree sizes** — every node gets a document
  position; "is ``d`` a descendant of ``a``" becomes an O(1) interval
  check and "all descendants of ``a``" a contiguous slice;
* **kind buckets** — node indexes per element kind, in document order,
  so ``find_all('core')`` and the ``//tag`` axis never walk the tree;
* **attribute indexes** — node-index sets per attribute presence and per
  ``(attribute, value)`` pair, serving the hot ``[@attr='value']``
  predicates with set membership instead of per-node dict probing;
* **memoized model analyses** — one lazy post-order pass per derived
  attribute (per-kind physical counts, CUDA-device counts, aggregate
  static power) makes every ``count_*``/``total_static_power`` call an
  O(1) array read, for any subtree root.  Each pass is sparse: it is
  seeded only with the nodes that contribute (the kind's bucket, the
  ``device``/``gpu`` buckets, the ``static_power`` attribute run) and
  visits just them and their physical ancestors.

On an index adopted from a mapped ``XPDLRT02`` image every one of these
structures reads the mapped sections: the analyses walk the ``RECS``
kind ids and parents and match non-physical kinds by string-pool id, so
the only :class:`~repro.ir.IRNode` objects they materialize are the
``static_power`` carriers and the ``programming_model`` children of
``device``/``gpu`` nodes, whose attributes they read.

The index is pure structure — it holds no handles and no context, so one
index can back any number of :class:`~repro.runtime.query.QueryContext`
objects over the same IR (contexts intern their own handles).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import TYPE_CHECKING, Any

from ..analysis import NON_PHYSICAL_KINDS
from ..obs import get_observer
from ..units import POWER, Quantity, read_metric

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..ir import IRModel

_EMPTY_BUCKET: tuple[list[int], list[int]] = ([], [])
_EMPTY_SET: frozenset[int] = frozenset()
_ZERO_POWER = Quantity(0.0, POWER)

#: v2 images store "unreachable from root" as the u32 all-ones sentinel
#: (a mapped u32 view cannot hold the eager build's -1).
_UNREACHABLE = 0xFFFFFFFF
#: The root's parent in the image's RECS section (and in the eager plan).
_NO_PARENT = 0xFFFFFFFF


class _ImageKinds:
    """Kind strings viewed through the image's lazily-decoded pool."""

    __slots__ = ("_ids", "_pool")

    def __init__(self, image) -> None:
        self._ids = image.kind_ids
        self._pool = image.pool

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i: int) -> str:
        return self._pool[self._ids[i]]

    def __iter__(self):
        pool = self._pool
        return (pool[sid] for sid in self._ids)


class _ImageChildren:
    """Per-node child-index lists over the mapped CHLD section (memoized
    so hot child-axis steps don't re-slice per call)."""

    __slots__ = ("_off", "_idx", "_memo")

    def __init__(self, image) -> None:
        self._off = image.child_off
        self._idx = image.child_idx
        self._memo: list[list[int] | None] = [None] * image.n

    def __len__(self) -> int:
        return len(self._memo)

    def __getitem__(self, i: int) -> list[int]:
        c = self._memo[i]
        if c is None:
            c = self._memo[i] = list(self._idx[self._off[i] : self._off[i + 1]])
        return c


class IRIndex:
    """Read-only acceleration structures for one :class:`IRModel`.

    Built once (``IRModel.index()`` memoizes construction); never
    invalidated — the runtime IR is immutable by design.  A model backed
    by an intact v2 image skips construction entirely: the pre/size/doc
    arrays, kind buckets and attribute node sets are *views* over the
    mapped sections (attribute sets materialize lazily per key).
    """

    __slots__ = (
        "ir",
        "kinds",
        "children",
        "pre",
        "size",
        "doc",
        "_image",
        "_buckets",
        "_attr_has",
        "_attr_eq",
        "_plan",
        "_kind_counts",
        "_cuda_counts",
        "_static_power_w",
    )

    # Eager builds use plain lists/sets; image-backed indexes adopt u32
    # memoryviews and lazy wrappers — one declaration covers both.
    kinds: Any
    children: Any
    pre: Any
    size: Any
    doc: Any
    _image: Any
    _buckets: Any
    _attr_has: Any
    _attr_eq: Any

    def __init__(self, ir: "IRModel", *, use_image: bool = True) -> None:
        self.ir = ir
        image = getattr(ir, "_image", None) if use_image else None
        if image is not None and image.index_ok:
            self._init_from_image(image)
            return
        self._image = None
        nodes = ir.nodes
        n = len(nodes)
        self.kinds = [node.kind for node in nodes]
        self.children = [node.children for node in nodes]

        # -- pre-order numbering + subtree sizes (iterative, any depth) ----
        pre = [-1] * n
        size = [1] * n
        doc: list[int] = []
        if n:
            stack: list[int] = [~0, 0]  # ~i marks the post-visit of i
            while stack:
                i = stack.pop()
                if i < 0:
                    i = ~i
                    parent = nodes[i].parent
                    if parent is not None:
                        size[parent] += size[i]
                    continue
                pre[i] = len(doc)
                doc.append(i)
                for c in reversed(nodes[i].children):
                    stack.append(~c)
                    stack.append(c)
        self.pre = pre
        self.size = size
        self.doc = doc

        # -- kind buckets + attribute indexes, in document order -----------
        buckets: dict[str, tuple[list[int], list[int]]] = {}
        attr_has: dict[str, set[int]] = {}
        attr_eq: dict[tuple[str, str], set[int]] = {}
        kinds = self.kinds
        for pos, i in enumerate(doc):
            bucket = buckets.get(kinds[i])
            if bucket is None:
                bucket = buckets[kinds[i]] = ([], [])
            bucket[0].append(pos)
            bucket[1].append(i)
            for name, value in nodes[i].attrs.items():
                has = attr_has.get(name)
                if has is None:
                    has = attr_has[name] = set()
                has.add(i)
                eq = attr_eq.get((name, value))
                if eq is None:
                    eq = attr_eq[(name, value)] = set()
                eq.add(i)
        self._buckets = buckets
        self._attr_has = attr_has
        self._attr_eq = attr_eq

        # -- derived-analysis memos (built lazily, per analysis) -----------
        self._plan: tuple[Any, Any, Any] | None = None
        self._kind_counts: dict[str, list[int]] = {}
        self._cuda_counts: list[int] | None = None
        self._static_power_w: list[float] | None = None

        obs = get_observer()
        if obs.enabled:
            obs.count("runtime.index_builds")
            obs.count("runtime.index_nodes", n)
            if getattr(ir, "_load_origin", None) is not None:
                # A persisted model was opened without a usable index:
                # this build is exactly the startup tax the v2 image
                # format exists to avoid.  CI asserts this stays 0 on
                # the warm path.
                obs.count("index.rebuilds")
                obs.mark("index.rebuild", origin=ir._load_origin)

    def _init_from_image(self, image) -> None:
        """Adopt the mapped index sections — zero construction work."""
        self._image = image
        self.kinds = _ImageKinds(image)
        self.children = _ImageChildren(image)
        self.pre = image.pre
        self.size = image.size
        self.doc = image.doc
        self._buckets = image.buckets
        # Lazy per-key materialization caches (image lookups fill them).
        self._attr_has = {}
        self._attr_eq = {}
        self._plan = None
        self._kind_counts = {}
        self._cuda_counts = None
        self._static_power_w = None
        obs = get_observer()
        if obs.enabled:
            obs.count("index.load_mmap")
            obs.count("runtime.index_nodes", image.n)

    # -- structure queries -------------------------------------------------
    def interval(self, i: int) -> tuple[int, int]:
        """Document-position interval of the *strict* descendants of ``i``."""
        p = self.pre[i]
        if p < 0 or p == _UNREACHABLE:  # unreachable from the root
            return (0, 0)
        return (p + 1, p + self.size[i])

    def bucket(self, kind: str) -> tuple[list[int], list[int]]:
        """``(doc_positions, node_indexes)`` of every ``kind`` node."""
        return self._buckets.get(kind, _EMPTY_BUCKET)

    def descendants_of_kind(self, i: int, kind: str) -> list[int]:
        """Strict descendants of ``i`` with ``kind``, in document order."""
        lo, hi = self.interval(i)
        if lo >= hi:
            return []
        positions, indexes = self.bucket(kind)
        return indexes[bisect_left(positions, lo) : bisect_left(positions, hi)]

    def descendant_slice(self, i: int) -> list[int]:
        """All strict descendants of ``i``, in document order."""
        lo, hi = self.interval(i)
        return self.doc[lo:hi]

    def is_descendant(self, d: int, a: int) -> bool:
        """O(1) strict-descendant check via the interval numbering."""
        lo, hi = self.interval(a)
        p = self.pre[d]
        return lo <= p < hi

    def attr_has(self, name: str) -> frozenset[int] | set[int]:
        image = self._image
        if image is None:
            return self._attr_has.get(name, _EMPTY_SET)
        members = self._attr_has.get(name)
        if members is None:
            members = self._attr_has[name] = image.attr_has_set(name)
        return members

    def attr_eq(self, name: str, value: str) -> frozenset[int] | set[int]:
        image = self._image
        if image is None:
            return self._attr_eq.get((name, value), _EMPTY_SET)
        members = self._attr_eq.get((name, value))
        if members is None:
            members = self._attr_eq[(name, value)] = image.attr_eq_set(
                name, value
            )
        return members

    # -- memoized model analyses -------------------------------------------
    def _physical_plan(self) -> tuple[Any, Any, Any]:
        """``(kind ids, parents, non-physical kind ids)``, built once and
        shared by every analysis.  Image-backed indexes read the mapped
        RECS kind ids and parents and match non-physical kinds by pool
        id; eager ones use the kind strings and the nodes' parents.
        Only kinds with a bucket matter: the analyses climb from
        reachable nodes, whose ancestors are all reachable."""
        plan = self._plan
        if plan is None:
            image = self._image
            if image is not None:
                # A kind's pool id is the kind id of any node in its bucket.
                kind_ids = image.kind_ids
                nonphysical = {
                    kind_ids[indexes[0]]
                    for kind, (_positions, indexes) in image.buckets.items()
                    if kind in NON_PHYSICAL_KINDS and len(indexes)
                }
                plan = (kind_ids, image.parents, nonphysical)
            else:
                parents = [
                    _NO_PARENT if node.parent is None else node.parent
                    for node in self.ir.nodes
                ]
                plan = (self.kinds, parents, NON_PHYSICAL_KINDS)
            self._plan = plan
        return plan

    def _physical_sums(self, own: dict[int, Any], zero: Any) -> list:
        """Per-node sums over the physical containment tree.

        ``out[i]`` is ``i``'s own value (``zero`` unless in ``own``) plus
        ``out[c]`` of each child ``c`` in child order; non-physical kinds
        stay ``zero`` and prune their subtree.  Only the contributors in
        ``own`` (physical nodes, in document order) and their physical
        ancestors are visited: every other node sums to ``zero``, and
        adding a zero term never changes a sum (none here is ``-0.0``), so
        each value — floats included — is bit-identical to the dense pass
        over all nodes.
        """
        kind_ids, parents, nonphysical = self._physical_plan()
        out = [zero] * len(self.kinds)
        # Climbing from contributors in document order appends each
        # visited node to its parent's list in child order.
        kids: dict[int, list[int]] = {}
        for i, value in own.items():
            out[i] = value
            c, p = i, parents[i]
            while p != _NO_PARENT:
                siblings = kids.get(p)
                if siblings is not None:
                    siblings.append(c)
                    break
                if kind_ids[p] in nonphysical:
                    break
                kids[p] = [c]
                if p in own:
                    break  # an earlier contributor, linked to its parent
                c, p = p, parents[p]
        # Reverse document order visits every child before its parent.
        for p in sorted(kids, key=self.pre.__getitem__, reverse=True):
            acc = own.get(p, zero)
            for c in kids[p]:
                acc += out[c]
            out[p] = acc
        return out

    def kind_counts(self, kind: str) -> list[int]:
        """Per-node physical-subtree counts of ``kind`` (lazy, memoized)."""
        counts = self._kind_counts.get(kind)
        if counts is None:
            own: dict[int, int] = {}
            if kind not in NON_PHYSICAL_KINDS:
                own = dict.fromkeys(self.bucket(kind)[1], 1)
            counts = self._physical_sums(own, 0)
            self._kind_counts[kind] = counts
            get_observer().count("runtime.analysis_memo_builds")
        return counts

    def cuda_counts(self) -> list[int]:
        """Per-node physical-subtree CUDA-programmable device counts."""
        counts = self._cuda_counts
        if counts is None:
            nodes = self.ir.nodes
            kinds = self.kinds
            devices = sorted(
                chain(self.bucket("device")[1], self.bucket("gpu")[1]),
                key=self.pre.__getitem__,
            )
            own: dict[int, int] = {}
            for i in devices:
                for c in self.children[i]:
                    if kinds[c] == "programming_model" and "cuda" in (
                        nodes[c].attrs.get("type", "").lower()
                    ):
                        own[i] = 1
                        break
            counts = self._physical_sums(own, 0)
            self._cuda_counts = counts
            get_observer().count("runtime.analysis_memo_builds")
        return counts

    def static_power_w(self) -> list[float]:
        """Per-node physical-subtree static power in watts.

        Built lazily so malformed ``static_power`` attributes raise on the
        first *call* (as the naive walk did), not at index construction.
        """
        sums = self._static_power_w
        if sums is None:
            nodes = self.ir.nodes
            kind_ids, _parents, nonphysical = self._physical_plan()
            carriers = sorted(
                self.attr_has("static_power"),
                key=self.pre.__getitem__,
                reverse=True,
            )
            own: dict[int, float] = {}
            # Reverse document order, like the dense pass: of several
            # malformed values, the same one raises.
            for i in carriers:
                if kind_ids[i] in nonphysical:
                    continue
                q = read_metric(nodes[i].attrs, "static_power", expect=POWER)
                if q is not None:
                    # Reproduce the sequential accumulation's dimension
                    # check (a unitless static_power must still raise).
                    own[i] = (_ZERO_POWER + q).magnitude
            # Back to document order for the climb.
            sums = self._physical_sums(dict(reversed(own.items())), 0.0)
            self._static_power_w = sums
            get_observer().count("runtime.analysis_memo_builds")
        return sums
