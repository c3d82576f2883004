"""A small path query mini-language over runtime handles, compiled.

Complements the browsing functions with string queries like::

    node[0]/cpu
    //device[@type='Nvidia_K20c']
    //cache[@name='L3']

The grammar is the one of :mod:`repro.xpdlxml.path` (same syntax in
descriptors and at runtime): :func:`compile_path` parses a query string
into a :class:`PathPlan` of :class:`PathStep` segment operations,
validating the whole path before anything is walked.  The compiled
engine caches plans in an LRU keyed by the path text
(``runtime.plan_hits``/``runtime.plan_misses`` count the cache traffic)
and evaluates them over the :class:`~repro.runtime.index.IRIndex` on
integer node indexes: the ``//tag`` axis is a bisect into the kind
bucket's document-order interval instead of a subtree walk, and
``[@attr='value']`` predicates are set-membership probes into the
attribute indexes.  Handles are built (interned) only for the final
result set, and a handle is just a context and a node index: no IR node
is decoded for a result until its attributes are read.

:func:`query_all_naive` walks the same plan over the IR nodes without
the index or the plan cache — the reference oracle the property tests
hold the compiled engine to, result-for-result and in order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict

from ..obs import get_observer
from ..xpdlxml.path import PathPlan, PathStep, compile_path
from .query import ModelHandle, QueryContext

#: LRU of compiled plans, keyed by path text.  Plans carry no context, so
#: one cache serves every QueryContext in the process.
_PLAN_CACHE: OrderedDict[str, PathPlan] = OrderedDict()
_PLAN_CACHE_MAX = 256


def _plan_for(path: str) -> PathPlan:
    plan = _PLAN_CACHE.get(path)
    if plan is not None:
        _PLAN_CACHE.move_to_end(path)
        get_observer().count("runtime.plan_hits")
        return plan
    plan = compile_path(path)  # raises before the miss is recorded
    get_observer().count("runtime.plan_misses")
    _PLAN_CACHE[path] = plan
    if len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Current plan-cache occupancy (counters live on the observer)."""
    return {"entries": len(_PLAN_CACHE), "max_entries": _PLAN_CACHE_MAX}


def clear_plan_cache() -> None:
    """Drop all compiled plans (tests; never needed in production — plans
    depend only on the query text)."""
    _PLAN_CACHE.clear()


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------


def _eval_step(ctx: QueryContext, contexts: list[int], step: PathStep) -> list[int]:
    """Apply one step to a list of context node indexes.

    Faithful to XPath-per-context semantics: candidates are produced per
    context node in document order, predicates filter each context's
    matches separately, and results deduplicate globally in first-seen
    order — exactly what :func:`query_all_naive` computes by walking.
    """
    index = ctx.index
    kinds = index.kinds
    matched: list[int] = []
    seen: set[int] = set()
    for i in contexts:
        if step.descend:
            if step.tag == "*":
                local = index.descendant_slice(i)
            else:
                lo, hi = index.interval(i)
                positions, indexes = index.bucket(step.tag)
                local = indexes[
                    bisect_left(positions, lo) : bisect_left(positions, hi)
                ]
        else:
            children = index.children[i]
            if step.tag == "*":
                local = list(children)
            else:
                local = [c for c in children if kinds[c] == step.tag]
        for pred in step.preds:
            if pred[0] == "index":
                k = pred[1]
                local = [local[k]] if k < len(local) else []
            else:
                _t, attr, value = pred
                members = (
                    index.attr_has(attr)
                    if value is None
                    else index.attr_eq(attr, value)
                )
                local = [c for c in local if c in members] if members else []
        for c in local:
            if c not in seen:
                seen.add(c)
                matched.append(c)
    return matched


def query_all(ctx: QueryContext, path: str) -> list[ModelHandle]:
    """Evaluate a path query from the model root (compiled engine)."""
    get_observer().count("runtime.queries")
    plan = _plan_for(path)
    contexts = [ctx.ir.root.index]
    for step in plan.steps:
        contexts = _eval_step(ctx, contexts, step)
        if not contexts:
            return []
    return [ctx.handle(i) for i in contexts]


def query_first(ctx: QueryContext, path: str) -> ModelHandle | None:
    matches = query_all(ctx, path)
    return matches[0] if matches else None


# ---------------------------------------------------------------------------
# reference oracle (the original walking evaluator)
# ---------------------------------------------------------------------------


def _apply_naive(ctx: QueryContext, nodes: list, step: PathStep) -> list:
    tag = step.tag
    ir = ctx.ir
    matched: list = []
    seen: set[int] = set()
    for node in nodes:
        if step.descend:
            candidates = [n for n in ir.walk(node) if n is not node]
        else:
            candidates = ir.children_of(node)
        # Predicates filter per context node (XPath semantics), so an
        # index predicate picks one match under each node, not globally.
        local = [c for c in candidates if tag == "*" or c.kind == tag]
        for pred in step.preds:
            if pred[0] == "index":
                idx = pred[1]
                local = [local[idx]] if idx < len(local) else []
            else:
                _kind, attr, value = pred
                if value is None:
                    local = [c for c in local if attr in c.attrs]
                else:
                    local = [c for c in local if c.attrs.get(attr) == value]
        for c in local:
            if c.index not in seen:
                seen.add(c.index)
                matched.append(c)
    return matched


def query_all_naive(ctx: QueryContext, path: str) -> list[ModelHandle]:
    """The uncompiled evaluator: re-parses the path and walks the tree.

    Kept as the reference oracle for the compiled engine (property tests
    assert result-for-result, in-order equality) and as the comparison
    subject in the E9 benchmarks.  Like the compiled engine, the whole
    path is validated before it is walked: a malformed trailing segment
    raises even when an earlier segment already matched nothing.
    """
    nodes = [ctx.ir.root]
    for step in compile_path(path).steps:
        nodes = _apply_naive(ctx, nodes, step)
        if not nodes:
            return []
    return [ModelHandle(ctx, n.index) for n in nodes]
