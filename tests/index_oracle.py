"""The query index recomputed by walking ``ir.nodes``, kept as the test oracle.

:mod:`repro.ir.image` derives a model's index sections from its core
records in one function, which both the writer and a rebuilding reader
call, and :class:`~repro.runtime.index.IRIndex` only adopts them.  This
module computes the same structures the plain way, from the
materialized :class:`~repro.ir.IRNode` objects: pre-order positions and
subtree sizes of the nodes reachable from the root, kind buckets in
document order, attribute node sets and the first-wins id table.  The
tests hold every opened or rebuilt index to it.
"""

from __future__ import annotations


class IndexOracle:
    """The index structures of one model, from a walk over its nodes."""

    def __init__(self, ir) -> None:
        nodes = ir.nodes
        n = len(nodes)
        #: Document position per node; ``None`` when unreachable.
        self.pre: list[int | None] = [None] * n
        self.doc: list[int] = []
        stack = [0] if n else []
        while stack:
            i = stack.pop()
            self.pre[i] = len(self.doc)
            self.doc.append(i)
            stack.extend(reversed(nodes[i].children))
        self.size = [1] * n
        for i in reversed(self.doc):
            parent = nodes[i].parent
            if parent is not None:
                self.size[parent] += self.size[i]
        #: kind -> (doc positions, node indexes), reachable nodes only.
        self.buckets: dict[str, tuple[list[int], list[int]]] = {}
        self.attr_has: dict[str, set[int]] = {}
        self.attr_eq: dict[tuple[str, str], set[int]] = {}
        for pos, i in enumerate(self.doc):
            node = nodes[i]
            positions, indexes = self.buckets.setdefault(node.kind, ([], []))
            positions.append(pos)
            indexes.append(i)
            for name, value in node.attrs.items():
                self.attr_has.setdefault(name, set()).add(i)
                self.attr_eq.setdefault((name, value), set()).add(i)
        #: id -> the first node (in node order) carrying it, reachable or not.
        self.ids: dict[str, int] = {}
        for node in nodes:
            if "id" in node.attrs:
                self.ids.setdefault(node.attrs["id"], node.index)

    def interval(self, i: int) -> tuple[int, int]:
        """Document positions of the strict descendants of node ``i``."""
        p = self.pre[i]
        return (0, 0) if p is None else (p + 1, p + self.size[i])
