"""Base machinery of the XPDL model object layer.

XPDL distinguishes **meta-models** (reusable type descriptors, identified by
``name``) from **concrete models** (instances in a real system, identified by
``id``) — Sec. III-A of the paper.  Both are represented by subclasses of
:class:`ModelElement`; :meth:`ModelElement.level` reports which side an
element is on.  ``type`` references a meta-model from either level and
``extends`` lists supertypes for (multiple) inheritance.

Subclasses declare their typed quantity attributes with
:func:`metric_property`, which reads/writes the paper's paired
``metric``/``metric_unit`` attribute convention lazily against the raw
attribute map, so the DOM remains the single source of truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, TypeVar

from ..diagnostics import SourceSpan
from ..units import (
    DEFAULT_REGISTRY,
    Dimension,
    Quantity,
    read_metric,
    write_metric,
)

E = TypeVar("E", bound="ModelElement")

#: Attributes with structural meaning, excluded from "plain property" listings.
STRUCTURAL_ATTRS = frozenset(
    {"name", "id", "type", "extends", "prefix", "quantity"}
)


class ModelLevel(enum.Enum):
    """Which side of the meta/instance split an element sits on."""

    META = "meta"
    CONCRETE = "concrete"
    ANONYMOUS = "anonymous"


def metric_property(
    metric: str,
    dimension: Dimension | None = None,
    *,
    default_unit: str | None = None,
    doc: str | None = None,
) -> property:
    """A lazily-evaluated :class:`Quantity` property over ``attrs``.

    Returns ``None`` when the attribute is absent or the ``?`` placeholder.
    Assignment accepts a :class:`Quantity` or ``None`` (writes ``?``).
    """

    def fget(self: "ModelElement") -> Quantity | None:
        return read_metric(
            self.attrs,
            metric,
            registry=self.registry,
            default_unit=default_unit,
            expect=dimension,
        )

    def fset(self: "ModelElement", value: Quantity | None) -> None:
        write_metric(self.attrs, metric, value, registry=self.registry)

    return property(
        fget, fset, doc=doc or f"Quantity attribute {metric!r} (paired unit)."
    )


def str_property(attr: str, *, doc: str | None = None) -> property:
    """A plain string attribute property (``None`` when absent)."""

    def fget(self: "ModelElement") -> str | None:
        return self.attrs.get(attr)

    def fset(self: "ModelElement", value: str | None) -> None:
        if value is None:
            self.attrs.pop(attr, None)
        else:
            self.attrs[attr] = value

    return property(fget, fset, doc=doc or f"String attribute {attr!r}.")


def int_property(attr: str, *, doc: str | None = None) -> property:
    """An integer attribute property (``None`` when absent)."""

    def fget(self: "ModelElement") -> int | None:
        raw = self.attrs.get(attr)
        return int(raw) if raw is not None else None

    def fset(self: "ModelElement", value: int | None) -> None:
        if value is None:
            self.attrs.pop(attr, None)
        else:
            self.attrs[attr] = str(value)

    return property(fget, fset, doc=doc or f"Integer attribute {attr!r}.")


def bool_property(attr: str, *, default: bool | None = None, doc: str | None = None) -> property:
    """A boolean attribute property (XML spells ``true``/``false``)."""

    def fget(self: "ModelElement") -> bool | None:
        raw = self.attrs.get(attr)
        if raw is None:
            return default
        return raw.strip().lower() in ("true", "1", "yes")

    def fset(self: "ModelElement", value: bool | None) -> None:
        if value is None:
            self.attrs.pop(attr, None)
        else:
            self.attrs[attr] = "true" if value else "false"

    return property(fget, fset, doc=doc or f"Boolean attribute {attr!r}.")


@dataclass
class ModelElement:
    """One node of an XPDL model tree.

    The raw attribute map mirrors the XML; typed views (quantities, ints,
    refs) are computed on access so that rewriting the model back to XML is
    lossless.
    """

    #: XML tag this class models; set by each subclass.
    KIND: ClassVar[str] = "element"
    #: Whether the element may carry an inline power model etc.; informational.
    IS_HARDWARE: ClassVar[bool] = False

    attrs: dict[str, str] = field(default_factory=dict)
    children: list["ModelElement"] = field(default_factory=list)
    span: SourceSpan = field(default_factory=lambda: SourceSpan.unknown())
    parent: "ModelElement | None" = field(default=None, repr=False, compare=False)
    registry = DEFAULT_REGISTRY

    # -- identity -----------------------------------------------------------
    @property
    def kind(self) -> str:
        return type(self).KIND

    @property
    def name(self) -> str | None:
        """Meta-model identifier (``name`` attribute)."""
        return self.attrs.get("name")

    @property
    def ident(self) -> str | None:
        """Concrete-instance identifier (``id`` attribute)."""
        return self.attrs.get("id")

    @property
    def type_ref(self) -> str | None:
        """Reference to a meta-model (``type`` attribute)."""
        return self.attrs.get("type")

    @property
    def extends(self) -> tuple[str, ...]:
        """Supertype names from the ``extends`` attribute (comma-separated)."""
        raw = self.attrs.get("extends")
        if not raw:
            return ()
        return tuple(p.strip() for p in raw.split(",") if p.strip())

    def level(self) -> ModelLevel:
        if "name" in self.attrs:
            return ModelLevel.META
        if "id" in self.attrs:
            return ModelLevel.CONCRETE
        return ModelLevel.ANONYMOUS

    def label(self) -> str:
        """Best human-readable identity for messages."""
        return self.name or self.ident or f"<{self.kind}>"

    # -- tree ---------------------------------------------------------------
    def add(self, child: "ModelElement") -> "ModelElement":
        child.parent = self
        self.children.append(child)
        return child

    def remove(self, child: "ModelElement") -> None:
        self.children.remove(child)
        child.parent = None

    def walk(self) -> Iterator["ModelElement"]:
        """Depth-first pre-order traversal including ``self`` (an explicit
        stack: any depth, one generator frame)."""
        stack = [self]
        while stack:
            elem = stack.pop()
            yield elem
            stack += reversed(elem.children)

    def find_all(self, cls: type[E]) -> list[E]:
        """All descendants (including self) of the given element class."""
        return [e for e in self.walk() if isinstance(e, cls)]

    def find_children(self, cls: type[E]) -> list[E]:
        """Direct children of the given element class."""
        return [c for c in self.children if isinstance(c, cls)]

    def find_child(self, cls: type[E]) -> E | None:
        for c in self.children:
            if isinstance(c, cls):
                return c
        return None

    def ancestors(self) -> Iterator["ModelElement"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def path(self) -> str:
        """Human-readable tree path like ``system#XScluster/cluster/node[0]``."""
        parts: list[str] = []
        node: ModelElement | None = self
        while node is not None:
            tag = node.kind
            if node.ident:
                tag += f"#{node.ident}"
            elif node.name:
                tag += f"#{node.name}"
            elif node.parent is not None:
                siblings = [
                    c for c in node.parent.children if c.kind == node.kind
                ]
                if len(siblings) > 1:
                    tag += f"[{siblings.index(node)}]"
            parts.append(tag)
            node = node.parent
        return "/".join(reversed(parts))

    # -- attributes -----------------------------------------------------------
    def get(self, attr: str, default: str | None = None) -> str | None:
        return self.attrs.get(attr, default)

    def set(self, attr: str, value: str) -> None:
        self.attrs[attr] = value

    def quantity(
        self,
        metric: str,
        dimension: Dimension | None = None,
        *,
        default_unit: str | None = None,
    ) -> Quantity | None:
        """Read any metric attribute with the paired unit convention."""
        return read_metric(
            self.attrs,
            metric,
            registry=self.registry,
            default_unit=default_unit,
            expect=dimension,
        )

    def set_quantity(self, metric: str, value: Quantity | None, *, unit: str | None = None) -> None:
        write_metric(self.attrs, metric, value, unit=unit, registry=self.registry)

    def plain_attrs(self) -> dict[str, str]:
        """Attributes without structural ones — a data-sheet view."""
        return {
            k: v for k, v in self.attrs.items() if k not in STRUCTURAL_ATTRS
        }

    # -- misc ---------------------------------------------------------------
    def clone(self) -> "ModelElement":
        """Deep copy with fresh parent links (parent of the copy is None)."""
        dup = type(self)(attrs=dict(self.attrs), span=self.span)
        for c in self.children:
            dup.add(c.clone())
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.label()}, {len(self.children)} children)"


class ElementRegistry:
    """Maps XML tags to :class:`ModelElement` subclasses.

    Unknown tags fall back to :class:`GenericElement` so user extensions
    (the 'X' in XPDL) parse without code changes.
    """

    def __init__(self) -> None:
        self._classes: dict[str, type[ModelElement]] = {}

    def register(self, cls: type[ModelElement]) -> type[ModelElement]:
        """Class decorator registering ``cls`` under ``cls.KIND``."""
        self._classes[cls.KIND] = cls
        return cls

    def class_for(self, tag: str) -> type[ModelElement]:
        return self._classes.get(tag, GenericElement)

    def create(self, tag: str, attrs: dict[str, str] | None = None, span: SourceSpan | None = None) -> ModelElement:
        cls = self.class_for(tag)
        elem = cls(attrs=dict(attrs or {}), span=span or SourceSpan.unknown())
        if cls is GenericElement:
            elem.tag = tag  # type: ignore[attr-defined]
        return elem

    def known_tags(self) -> list[str]:
        return sorted(self._classes)


#: The global tag registry populated by `repro.model.elements`.
ELEMENT_REGISTRY = ElementRegistry()


@dataclass
class GenericElement(ModelElement):
    """Fallback for tags without a dedicated class (extensibility escape)."""

    KIND = "generic"
    tag: str = "generic"

    @property
    def kind(self) -> str:
        return self.tag

    def clone(self) -> "GenericElement":
        dup = GenericElement(attrs=dict(self.attrs), span=self.span, tag=self.tag)
        for c in self.children:
            dup.add(c.clone())
        return dup


def visit(
    root: ModelElement,
    enter: Callable[[ModelElement], None] | None = None,
    leave: Callable[[ModelElement], None] | None = None,
) -> None:
    """Recursive visitor with enter/leave hooks."""
    if enter is not None:
        enter(root)
    for child in root.children:
        visit(child, enter, leave)
    if leave is not None:
        leave(root)
