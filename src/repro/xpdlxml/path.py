"""A small path query language over the XML DOM.

Supports the subset needed by the toolchain and tests:

* ``tag`` — child elements with that tag
* ``*`` — any child element
* ``//tag`` — descendants with that tag
* ``tag[3]`` — index within matches (0-based)
* ``tag[@attr]`` / ``tag[@attr='v']`` — attribute presence / equality
* path segments separated by ``/``

Queries return lists of elements; they never raise on "no match".
Malformed paths — including bracketed predicates the grammar cannot
parse — raise :class:`~repro.diagnostics.QueryError` instead of being
silently ignored.  The whole path is checked before any of it is
walked, so a malformed segment raises even behind one that matches
nothing.

Predicates follow XPath semantics: they filter the matches of **each
context node separately**, so ``a/b[0]`` returns the first ``<b>`` of
every ``<a>``, not the globally first ``<b>``.

This module owns the grammar: :func:`compile_path` parses a path into a
:class:`PathPlan`, one :class:`PathStep` per segment, and every
evaluator walks such a plan — :func:`find_all` here, and the compiled
and naive runtime engines in :mod:`repro.runtime.paths` (same syntax in
descriptors and at runtime).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..diagnostics import QueryError
from .dom import XmlElement

_SEGMENT_RE = re.compile(
    r"""^(?P<axis>//)?(?P<tag>\*|[A-Za-z_:][\w:.\-]*)
        (?P<preds>(\[[^\]]*\])*)$""",
    re.VERBOSE,
)
_PRED_RE = re.compile(
    r"""\[(?:
          (?P<index>\d+)
        | @(?P<attr>[\w:.\-]+)\s*(?:=\s*'(?P<value>[^']*)')?
        )\]""",
    re.VERBOSE,
)


def _split_segments(path: str) -> list[str]:
    """Split on '/' but keep '//' attached to the following segment."""
    segments: list[str] = []
    i, n = 0, len(path)
    while i < n:
        if path.startswith("//", i):
            k = i + 2
        elif path[i] == "/":
            i += 1
            continue
        else:
            k = i
        while k < n and path[k] != "/":
            k += 1
        segments.append(path[i:k])
        i = k
    return segments


#: One parsed predicate: ``("index", n)`` or ``("attr", name, value_or_None)``.
Predicate = tuple


def _parse_predicates(preds: str, segment: str) -> tuple[Predicate, ...]:
    """Parse the bracketed predicate chain of one segment.

    Every ``[...]`` group must match the predicate grammar; anything the
    grammar cannot parse raises :class:`QueryError` rather than being
    silently dropped (``a[@x='it''s']`` must not match a bare ``<a/>``).
    """
    parsed: list[Predicate] = []
    pos = 0
    for pm in _PRED_RE.finditer(preds):
        if pm.start() != pos:
            break
        if pm.group("index") is not None:
            parsed.append(("index", int(pm.group("index"))))
        else:
            parsed.append(("attr", pm.group("attr"), pm.group("value")))
        pos = pm.end()
    if pos != len(preds):
        raise QueryError(
            f"malformed predicate {preds[pos:]!r} in segment {segment!r}"
        )
    return tuple(parsed)


@dataclass(frozen=True, slots=True)
class PathStep:
    """One compiled segment: axis + tag + parsed predicate chain."""

    descend: bool
    tag: str  # element kind, or "*"
    preds: tuple[Predicate, ...]


@dataclass(frozen=True, slots=True)
class PathPlan:
    """A parsed query, reusable across documents and models (pure syntax)."""

    path: str
    steps: tuple[PathStep, ...]


def compile_path(path: str) -> PathPlan:
    """Parse ``path`` into a plan; raises :class:`QueryError` when malformed."""
    steps: list[PathStep] = []
    for segment in _split_segments(path):
        m = _SEGMENT_RE.match(segment)
        if m is None:
            raise QueryError(f"malformed query segment {segment!r}")
        steps.append(
            PathStep(
                descend=m.group("axis") == "//",
                tag=m.group("tag"),
                preds=_parse_predicates(m.group("preds") or "", segment),
            )
        )
    return PathPlan(path, tuple(steps))


def _filter(
    matched: list[XmlElement], preds: tuple[Predicate, ...]
) -> list[XmlElement]:
    """Apply the predicate chain to one context node's matches."""
    for pred in preds:
        if pred[0] == "index":
            idx = pred[1]
            matched = [matched[idx]] if idx < len(matched) else []
        else:
            _kind, attr, value = pred
            if value is None:
                matched = [e for e in matched if attr in e]
            else:
                matched = [e for e in matched if e.get(attr) == value]
    return matched


def _apply_step(nodes: list[XmlElement], step: PathStep) -> list[XmlElement]:
    tag = step.tag
    matched: list[XmlElement] = []
    seen: set[int] = set()
    for node in nodes:
        if step.descend:
            candidates = [
                e
                for child in node.elements()
                for e in child.iter(None)
            ]
        else:
            candidates = node.elements()
        # XPath semantics: predicates filter per context node, so an index
        # predicate selects one match under *each* node, not globally.
        local = [c for c in candidates if tag == "*" or c.tag == tag]
        for c in _filter(local, step.preds):
            if id(c) not in seen:
                seen.add(id(c))
                matched.append(c)
    return matched


def find_all(root: XmlElement, path: str) -> list[XmlElement]:
    """Evaluate ``path`` relative to ``root`` (root itself is the context)."""
    nodes = [root]
    for step in compile_path(path).steps:
        nodes = _apply_step(nodes, step)
        if not nodes:
            return []
    return nodes


def find_first(root: XmlElement, path: str) -> XmlElement | None:
    """First match of ``path`` or ``None``."""
    matches = find_all(root, path)
    return matches[0] if matches else None
