"""The dense post-order analysis pass, kept as the test oracle.

``IRIndex`` computes its analysis memos sparsely: it visits only the
nodes that contribute and their physical ancestors.  This module keeps
the earlier dense form, which visits every reachable node in reverse
document order and reads each one as an :class:`~repro.ir.IRNode`.  The
tests hold the sparse memos to it with exact ``==``, floats included,
because both accumulate in the same order: a node's own value first,
then its children in child order.
"""

from __future__ import annotations

from repro.analysis import NON_PHYSICAL_KINDS
from repro.units import POWER, Quantity, read_metric

_ZERO_POWER = Quantity(0.0, POWER)


def physical_postorder(ir, per_node, out: list) -> list:
    """Fill ``out[i]`` with ``per_node(i) + sum(out[children])`` over the
    physical containment tree (non-physical kinds contribute nothing and
    prune their subtree).  Reverse document order visits every child
    before its parent without recursion."""
    nodes = ir.nodes
    doc = []
    stack = [0] if len(nodes) else []
    while stack:
        i = stack.pop()
        doc.append(i)
        stack.extend(reversed(nodes[i].children))
    for i in reversed(doc):
        node = nodes[i]
        if node.kind in NON_PHYSICAL_KINDS:
            continue  # out[i] stays the zero it was initialized to
        acc = per_node(i)
        for c in node.children:
            acc += out[c]
        out[i] = acc
    return out


def kind_counts(ir, kind: str) -> list[int]:
    nodes = ir.nodes
    return physical_postorder(
        ir, lambda i: 1 if nodes[i].kind == kind else 0, [0] * len(nodes)
    )


def cuda_counts(ir) -> list[int]:
    nodes = ir.nodes

    def is_cuda_device(i: int) -> int:
        if nodes[i].kind not in ("device", "gpu"):
            return 0
        for c in nodes[i].children:
            if nodes[c].kind == "programming_model" and "cuda" in (
                nodes[c].attrs.get("type", "").lower()
            ):
                return 1
        return 0

    return physical_postorder(ir, is_cuda_device, [0] * len(nodes))


def static_power_w(ir) -> list[float]:
    nodes = ir.nodes

    def power_of(i: int) -> float:
        q = read_metric(nodes[i].attrs, "static_power", expect=POWER)
        if q is None:
            return 0.0
        return (_ZERO_POWER + q).magnitude

    return physical_postorder(ir, power_of, [0.0] * len(nodes))
