"""The XPDL runtime query API (paper Sec. IV).

The Python twin of the generated C++ API, exposing the paper's four
function categories over the light-weight runtime IR file:

1. **Initialization** — :func:`xpdl_init` loads the runtime data structure
   file produced by the toolchain and returns a :class:`QueryContext`.
2. **Model-tree browsing** — lookups of inner elements returning a handle,
   a list of handles, or ``None`` (the paper's NULL).
3. **Attribute getters** — generated-getter-style typed accessors
   (``get_<attr>()`` via ``__getattr__``, plus explicit helpers).
4. **Model analysis functions** — derived attributes such as core counts,
   CUDA device counts and subtree static power.

Everything is read-only, matching the introspection use of conditional
composition [3].  Because the queries run *inside* applications'
optimization loops, the context is backed by a compiled
:class:`~repro.runtime.index.IRIndex` (adopted from the mapped image at
:func:`xpdl_init`, or built once): browsing serves interned handles out
of kind buckets and document-order intervals instead of re-walking the
tree, and the analysis functions are O(1) reads of memoized post-order
aggregates.

A handle is ``(context, node index)``: its kind comes from the index,
and browsing (children, descendants, path results) moves between node
indexes.  Its :class:`~repro.ir.IRNode` materializes from the image's
record sections only when its attributes, label or parent are read, so a
``//core`` query over an image-backed model allocates one small handle
per result and decodes no record.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Iterator

from ..analysis import NON_PHYSICAL_KINDS
from ..diagnostics import QueryError
from ..ir import IRModel, IRNode
from ..obs import get_observer
from ..units import (
    DEFAULT_REGISTRY,
    Dimension,
    POWER,
    Quantity,
    read_metric,
)


@lru_cache(maxsize=None)
def _generated_getter(name: str):
    """One shared getter function per ``get_<attr>`` name.

    Installed on :class:`ModelHandle` at first use, so every later
    ``h.get_frequency`` is an ordinary class-attribute lookup — no closure
    is built per call.
    """
    attr_name = name[4:]

    def getter(self) -> str | None:
        return self._node.attrs.get(attr_name)

    getter.__name__ = name
    getter.__qualname__ = f"ModelHandle.{name}"
    return getter


class ModelHandle:
    """A read-only handle to one model element at runtime.

    Attribute getters are generated on demand: ``h.get_id()``,
    ``h.get_frequency()`` etc. mirror the C++ API's generated getters;
    ``h.get_quantity("static_power")`` gives the unit-aware view.
    Handles are interned per context — browsing the same element twice
    returns the same object.  A handle holds only its context and node
    index; the IR node is read (and, on an image, materialized) when an
    attribute, the label or the parent is asked for.
    """

    __slots__ = ("_ctx", "_index")

    def __init__(self, ctx: "QueryContext", index: int) -> None:
        self._ctx = ctx
        self._index = index

    @property
    def _node(self) -> IRNode:
        return self._ctx.ir.nodes[self._index]

    # -- identity ------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self._ctx.index.kinds[self._index]

    @property
    def index(self) -> int:
        return self._index

    def label(self) -> str:
        return self._node.label()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModelHandle)
            and other._ctx is self._ctx
            and other._index == self._index
        )

    def __hash__(self) -> int:
        return hash((id(self._ctx), self._index))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ModelHandle<{self.kind} {self.label()}>"

    # -- category 2: browsing ---------------------------------------------------
    def parent(self) -> "ModelHandle | None":
        p = self._node.parent
        return self._ctx.handle(p) if p is not None else None

    def children(self, kind: str | None = None) -> list["ModelHandle"]:
        ctx = self._ctx
        kinds = ctx.index.kinds
        return [
            ctx.handle(c)
            for c in ctx.index.children[self._index]
            if kind is None or kinds[c] == kind
        ]

    def first(self, kind: str) -> "ModelHandle | None":
        ctx = self._ctx
        kinds = ctx.index.kinds
        for c in ctx.index.children[self._index]:
            if kinds[c] == kind:
                return ctx.handle(c)
        return None

    def descendants(self, kind: str | None = None) -> list["ModelHandle"]:
        ctx = self._ctx
        if kind is None:
            indexes = ctx.index.descendant_slice(self._index)
        else:
            indexes = ctx.index.descendants_of_kind(self._index, kind)
        return [ctx.handle(i) for i in indexes]

    def walk(self) -> Iterator["ModelHandle"]:
        ctx = self._ctx
        yield ctx.handle(self._index)
        for i in ctx.index.descendant_slice(self._index):
            yield ctx.handle(i)

    # -- category 3: attribute getters ----------------------------------------------
    def attr(self, name: str, default: str | None = None) -> str | None:
        return self._node.attrs.get(name, default)

    def attrs(self) -> dict[str, str]:
        return dict(self._node.attrs)

    def get_quantity(
        self, metric: str, dimension: Dimension | None = None
    ) -> Quantity | None:
        return read_metric(
            self._node.attrs,
            metric,
            registry=DEFAULT_REGISTRY,
            expect=dimension,
        )

    def get_int(self, name: str) -> int | None:
        raw = self._node.attrs.get(name)
        return int(raw) if raw is not None else None

    def __getattr__(self, name: str):
        # Generated-getter emulation: get_<attr>() -> str | None.  The
        # getter is memoized on the class, so this only runs once per name.
        if name.startswith("get_"):
            getter = _generated_getter(name)
            setattr(ModelHandle, name, getter)
            return getter.__get__(self, ModelHandle)
        raise AttributeError(name)


class QueryContext:
    """Category 1: the initialized runtime query environment.

    Holds the (shared, read-only) :class:`IRIndex` plus this context's
    handle intern table — one :class:`ModelHandle` per visited node,
    reused across all browsing calls.
    """

    def __init__(self, ir: IRModel) -> None:
        self.ir = ir
        self.index = ir.index()
        self._handles: list[ModelHandle | None] = [None] * len(ir.nodes)

    def handle(self, index: int) -> ModelHandle:
        """The interned handle for node ``index``."""
        h = self._handles[index]
        if h is None:
            h = self._handles[index] = ModelHandle(self, index)
        return h

    # -- entry points --------------------------------------------------------
    @property
    def root(self) -> ModelHandle:
        return self.handle(self.ir.root.index)

    def by_id(self, ident: str) -> ModelHandle | None:
        node = self.ir.by_id(ident)
        return self.handle(node.index) if node is not None else None

    def find_all(self, kind: str) -> list[ModelHandle]:
        _, indexes = self.index.bucket(kind)
        return [self.handle(i) for i in indexes]

    def meta(self, key: str, default: str | None = None) -> str | None:
        return self.ir.meta.get(key, default)

    # -- category 4: model analysis functions --------------------------------------
    def _physical_walk(self, start: IRNode) -> Iterator[IRNode]:
        """Pre-order walk of the physical containment tree (iterative, so
        deep generated models cannot hit the recursion limit)."""
        if start.kind in NON_PHYSICAL_KINDS:
            return
        nodes = self.ir.nodes
        stack = [start.index]
        while stack:
            node = nodes[stack.pop()]
            yield node
            for c in reversed(node.children):
                if nodes[c].kind not in NON_PHYSICAL_KINDS:
                    stack.append(c)

    def _start(self, under: ModelHandle | None) -> int:
        """Node index an analysis starts from: the root, or ``under``."""
        if under is None:
            return self.ir.root.index
        if under._ctx is not self:
            raise QueryError(
                "analysis subtree handle belongs to another QueryContext; "
                "look the element up in this context first"
            )
        return under._index

    def count_kind(self, kind: str, *, under: ModelHandle | None = None) -> int:
        return self.index.kind_counts(kind)[self._start(under)]

    def count_cores(self, *, under: ModelHandle | None = None) -> int:
        """Number of processing cores in the (sub)tree."""
        return self.count_kind("core", under=under)

    def count_cuda_devices(self, *, under: ModelHandle | None = None) -> int:
        """Number of devices programmable with CUDA in the (sub)tree."""
        return self.index.cuda_counts()[self._start(under)]

    def total_static_power(self, *, under: ModelHandle | None = None) -> Quantity:
        """Aggregate static power over the physical (sub)tree."""
        return Quantity(self.index.static_power_w()[self._start(under)], POWER)

    def installed_software(self) -> list[ModelHandle]:
        """All installed software entries of the platform."""
        return self.find_all("installed")

    def has_installed(self, requirement: str) -> bool:
        """Whether any installed package matches a name/provides requirement.

        Matches case-insensitively against the package name/type/id and the
        comma-separated ``provides`` capability list — the lookup that
        guides variant selectability in conditional composition [3].
        """
        want = requirement.strip().lower()
        for pkg in self.installed_software():
            haystack = {
                (pkg.attr("name") or "").lower(),
                (pkg.attr("type") or "").lower(),
                (pkg.attr("id") or "").lower(),
            }
            provides = (pkg.attr("provides") or "").lower()
            haystack.update(p.strip() for p in provides.split(","))
            if want in haystack:
                return True
        return False

    def properties(self) -> dict[str, str]:
        """Flattened free-form key-value properties of the platform."""
        out: dict[str, str] = {}
        for prop in self.find_all("property"):
            name = prop.attr("name")
            if name and name not in out:
                out[name] = prop.attr("value") or prop.attr("type") or ""
        return out


def xpdl_init(filename: str) -> QueryContext:
    """Initialize the runtime query environment from a runtime model file.

    The Python spelling of the paper's ``int xpdl_init(char *filename)``;
    raises :class:`QueryError` on unreadable or malformed files instead of
    returning an error code.  A v2 image file is mmapped and its persisted
    index adopted in place (``index.load_mmap``); core-only images and
    images with damaged index sections fall back to a live index build
    (``index.rebuilds``).  Either way the cold-open latency lands in the
    ``index.open_s`` histogram.
    """
    obs = get_observer()
    t0 = time.perf_counter()
    try:
        ir = IRModel.load(filename)
    except FileNotFoundError:
        raise QueryError(f"runtime model file not found: {filename}") from None
    except OSError as exc:
        raise QueryError(
            f"cannot open runtime model file {filename}: {exc.strerror or exc}"
        ) from None
    ctx = QueryContext(ir)
    obs.count("runtime.inits")
    if obs.enabled:
        obs.record("index.open_s", time.perf_counter() - t0)
    return ctx


def xpdl_init_from_model(ir: IRModel) -> QueryContext:
    """Initialize directly from an in-memory IR (tool pipelines, tests)."""
    return QueryContext(ir)
