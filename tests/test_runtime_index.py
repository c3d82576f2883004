"""Tests for the compiled query engine (IRIndex, path plans, memos).

The compiled engine must be *indistinguishable* from the naive evaluator:
the hypothesis properties below generate random IR trees and random path
queries and assert the plan-based evaluation returns exactly the naive
walker's handles, in order — mirroring the PR 3 path-regression approach.
The derived-analysis memos are held to independently written recursive
references.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import NON_PHYSICAL_KINDS
from repro.diagnostics import QueryError, UnitError
from repro.ir import IRModel, IRNode
from repro.obs import Observer, use_observer
from repro.runtime import (
    IRIndex,
    ModelHandle,
    clear_plan_cache,
    compile_path,
    plan_cache_stats,
    query_all,
    query_all_naive,
    query_first,
    xpdl_init_from_model,
)
from repro.runtime.query import QueryContext
from tests import analysis_oracle


# ---------------------------------------------------------------------------
# IR construction helpers (direct IRNode building: no recursion limits,
# no dependence on the XML front end)
# ---------------------------------------------------------------------------


def ir_from_spec(spec) -> IRModel:
    """Build an IRModel from nested ``(kind, attrs, [children])`` tuples."""
    nodes: list[IRNode] = []

    def rec(s, parent):
        kind, attrs, children = s
        idx = len(nodes)
        node = IRNode(idx, kind, parent, dict(attrs))
        nodes.append(node)
        for c in children:
            node.children.append(rec(c, idx))
        return idx

    rec(spec, None)
    return IRModel.from_nodes(nodes)


def chain_ir(depth: int, leaf_kind: str = "core") -> IRModel:
    """A pathological ``node`` chain of ``depth`` with one leaf."""
    nodes = [IRNode(0, "system", None, {})]
    for i in range(1, depth + 1):
        nodes.append(IRNode(i, "node", i - 1, {}))
        nodes[i - 1].children.append(i)
    leaf = IRNode(depth + 1, leaf_kind, depth, {})
    nodes[depth].children.append(leaf.index)
    nodes.append(leaf)
    return IRModel.from_nodes(nodes)


SAMPLE_SPEC = (
    "system",
    {"id": "s"},
    [
        (
            "node",
            {"id": "n0"},
            [
                ("cpu", {"id": "c0", "frequency": "2"}, [("core", {}, []), ("core", {}, [])]),
                (
                    "device",
                    {"id": "g0", "static_power": "25", "static_power_unit": "W"},
                    [("programming_model", {"type": "cuda6.0,opencl"}, [])],
                ),
            ],
        ),
        ("software", {}, [("installed", {"name": "CUDA"}, [])]),
    ],
)


# ---------------------------------------------------------------------------
# index structure
# ---------------------------------------------------------------------------


class TestIRIndex:
    def test_document_order_matches_walk(self):
        ir = ir_from_spec(SAMPLE_SPEC)
        index = ir.index()
        assert list(index.doc) == [n.index for n in ir.walk()]
        assert [index.pre[i] for i in index.doc] == list(range(len(ir)))

    def test_index_is_built_once(self):
        ir = ir_from_spec(SAMPLE_SPEC)
        assert ir.index() is ir.index()
        assert isinstance(ir.index(), IRIndex)
        # two contexts over one IR share the index, not the handles
        a, b = xpdl_init_from_model(ir), xpdl_init_from_model(ir)
        assert a.index is b.index
        assert a.root is not b.root

    def test_interval_descendant_check(self):
        ir = ir_from_spec(SAMPLE_SPEC)
        index = ir.index()

        def ref_is_descendant(d, a):
            p = ir.nodes[d].parent
            while p is not None:
                if p == a:
                    return True
                p = ir.nodes[p].parent
            return False

        for a in range(len(ir)):
            for d in range(len(ir)):
                assert index.is_descendant(d, a) == ref_is_descendant(d, a), (d, a)

    def test_kind_buckets_in_document_order(self):
        ir = ir_from_spec(SAMPLE_SPEC)
        index = ir.index()
        for kind in ("core", "node", "device", "nope"):
            _, indexes = index.bucket(kind)
            assert list(indexes) == [n.index for n in ir.walk() if n.kind == kind]

    def test_attribute_indexes(self):
        ir = ir_from_spec(SAMPLE_SPEC)
        index = ir.index()
        assert index.attr_eq("id", "g0") == {5}  # node index of device g0
        assert index.attr_eq("id", "ghost") == frozenset()
        assert index.attr_has("static_power") == {5}
        assert index.attr_has("nope") == frozenset()

    def test_index_build_counters(self):
        # The index sections are built once, when the model is serialized;
        # adopting them builds nothing more.
        with use_observer(Observer()) as obs:
            ir = ir_from_spec(SAMPLE_SPEC)
            assert obs.counter("runtime.index_builds") == 1
            assert obs.counter("runtime.index_nodes") == len(ir)
            ir.index()
            assert obs.counter("runtime.index_builds") == 1
            assert obs.counter("index.load_mmap") == 1


# ---------------------------------------------------------------------------
# handle interning + generated-getter memoization (satellites)
# ---------------------------------------------------------------------------


class TestHandles:
    def test_interned_across_browsing(self):
        ctx = xpdl_init_from_model(ir_from_spec(SAMPLE_SPEC))
        assert ctx.by_id("c0") is ctx.by_id("c0")
        assert ctx.root is ctx.root
        node = ctx.root.children()[0]
        assert node is ctx.by_id("n0")
        assert node.parent() is ctx.root
        assert ctx.root.descendants("core")[0] is node.children()[0].children()[0]
        assert ctx.find_all("device")[0] is ctx.by_id("g0")

    def test_generated_getter_is_cached_on_the_class(self):
        ctx = xpdl_init_from_model(ir_from_spec(SAMPLE_SPEC))
        cpu = ctx.by_id("c0")
        assert cpu.get_frequency() == "2"
        assert "get_frequency" in ModelHandle.__dict__
        installed = ModelHandle.__dict__["get_frequency"]
        assert cpu.get_frequency() == "2"
        assert ModelHandle.__dict__["get_frequency"] is installed
        # a second handle hits the class attribute, same function object
        assert type(ctx.by_id("g0")).__dict__["get_frequency"] is installed
        assert ctx.by_id("g0").get_frequency() is None

    def test_getter_convention_still_lazy_for_unknown_names(self):
        ctx = xpdl_init_from_model(ir_from_spec(SAMPLE_SPEC))
        assert ctx.by_id("c0").get_no_such_attribute() is None
        with pytest.raises(AttributeError):
            ctx.by_id("c0").not_a_getter


# ---------------------------------------------------------------------------
# loud duplicate-id handling (satellite)
# ---------------------------------------------------------------------------


class TestDuplicateIds:
    def test_shadowed_id_is_counted_and_marked(self):
        spec = (
            "system",
            {},
            [
                ("cpu", {"id": "dup"}, []),
                ("device", {"id": "dup"}, []),
                ("cache", {"id": "unique"}, []),
            ],
        )
        with use_observer(Observer()) as obs:
            ir = ir_from_spec(spec)  # the id table is written here ...
            assert ir.by_id("dup").kind == "cpu"  # ... first wins ...
            assert obs.counter("ir.id_shadowed") == 1  # ... but loudly
            marks = [e for e in obs.events if e.name == "ir.id_shadowed"]
            assert len(marks) == 1
            assert marks[0].fields["id"] == "dup"
            assert marks[0].fields["kept_kind"] == "cpu"
            assert marks[0].fields["shadowed_kind"] == "device"

    def test_session_emitted_model_counts_once(self):
        """The emitted model is opened over its image; the shadowed id is
        counted once, when the image's id table is written."""
        from repro.repository import MemoryStore, ModelRepository
        from repro.toolchain import ToolchainSession

        store = MemoryStore(
            {"sys.xpdl": "<system id='dup_sys'><cpu id='dup'/><device id='dup'/></system>"}
        )
        obs = Observer()
        ir = ToolchainSession(ModelRepository([store]), observer=obs).emit_ir(
            "dup_sys"
        ).ir
        with use_observer(obs):
            assert ir.by_id("dup").kind == "cpu"
            assert ir.by_id("dup").kind == "cpu"
        assert obs.counter("ir.id_shadowed") == 1
        marks = [e for e in obs.events if e.name == "ir.id_shadowed"]
        assert [m.fields["shadowed_kind"] for m in marks] == ["device"]

    def test_unique_ids_stay_silent(self):
        with use_observer(Observer()) as obs:
            ir = ir_from_spec(SAMPLE_SPEC)
            assert ir.by_id("g0") is not None
            assert obs.counter("ir.id_shadowed") == 0


# ---------------------------------------------------------------------------
# deep generated trees (satellite: no RecursionError)
# ---------------------------------------------------------------------------


class TestDeepTrees:
    DEPTH = 4000  # comfortably past the default recursion limit

    def test_analysis_on_deep_chain(self):
        ctx = xpdl_init_from_model(chain_ir(self.DEPTH))
        assert ctx.count_cores() == 1
        assert ctx.count_kind("node") == self.DEPTH
        assert ctx.count_cuda_devices() == 0
        assert ctx.total_static_power().magnitude == 0.0

    def test_analysis_on_deep_image_chain(self):
        ir = IRModel.from_bytes(chain_ir(self.DEPTH).to_bytes())
        ctx = xpdl_init_from_model(ir)
        assert ctx.index._image is not None
        assert ctx.count_cores() == 1
        assert ctx.count_kind("node") == self.DEPTH
        assert ctx.count_cuda_devices() == 0
        assert ctx.total_static_power().magnitude == 0.0
        deepest = ctx.handle(self.DEPTH)
        assert ctx.count_cores(under=deepest) == 1
        assert ctx.count_kind("node", under=deepest) == 1

    def test_physical_walk_is_iterative(self):
        ctx = xpdl_init_from_model(chain_ir(self.DEPTH))
        assert sum(1 for _ in ctx._physical_walk(ctx.ir.root)) == self.DEPTH + 2

    def test_queries_on_deep_chain(self):
        ctx = xpdl_init_from_model(chain_ir(self.DEPTH))
        assert len(query_all(ctx, "//core")) == 1
        assert query_all(ctx, "//core") == query_all_naive(ctx, "//core")

    def test_writer_serializes_deep_chain_iteratively(self):
        import sys

        from repro.xpdlxml import document, element, write_xml

        # Build the chain programmatically: the parser is recursive, so a
        # deep *input* document is out of scope here -- the writer is not.
        root = element("system", {"id": "deep"})
        tip = root
        for i in range(self.DEPTH):
            child = element("node", {"id": f"n{i}"})
            tip.append(child)
            tip = child
        doc = document(root, source_name="deep.xpdl")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            text = write_xml(doc, pretty=False)
        finally:
            sys.setrecursionlimit(limit)
        assert text.count("<node") == self.DEPTH
        assert text.count("</node>") == self.DEPTH - 1  # deepest self-closes


# ---------------------------------------------------------------------------
# plan compiler + LRU plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_hits_and_misses_are_counted(self):
        ctx = xpdl_init_from_model(ir_from_spec(SAMPLE_SPEC))
        clear_plan_cache()
        with use_observer(Observer()) as obs:
            query_all(ctx, "node/cpu/core")
            query_all(ctx, "node/cpu/core")
            query_all(ctx, "node/cpu/core")
            assert obs.counter("runtime.plan_misses") == 1
            assert obs.counter("runtime.plan_hits") == 2
            assert obs.counter("runtime.queries") == 3
        assert plan_cache_stats()["entries"] >= 1

    def test_malformed_path_raises_and_is_not_cached(self):
        ctx = xpdl_init_from_model(ir_from_spec(SAMPLE_SPEC))
        clear_plan_cache()
        with use_observer(Observer()) as obs:
            for path in ("node[", "gpu/node[", "gpu/node[@]"):
                with pytest.raises(QueryError):
                    query_all(ctx, path)
                with pytest.raises(QueryError):
                    query_all_naive(ctx, path)
            assert obs.counter("runtime.plan_misses") == 0
        assert plan_cache_stats()["entries"] == 0

    def test_compile_path_shapes(self):
        plan = compile_path("node[0]//cache[@name='L3']")
        assert [s.descend for s in plan.steps] == [False, True]
        assert plan.steps[0].preds == (("index", 0),)
        assert plan.steps[1].preds == (("attr", "name", "L3"),)

    def test_plans_are_shared_across_contexts(self):
        a = xpdl_init_from_model(ir_from_spec(SAMPLE_SPEC))
        b = xpdl_init_from_model(ir_from_spec(SAMPLE_SPEC))
        clear_plan_cache()
        with use_observer(Observer()) as obs:
            query_all(a, "//installed")
            query_all(b, "//installed")
            assert obs.counter("runtime.plan_misses") == 1
            assert obs.counter("runtime.plan_hits") == 1


# ---------------------------------------------------------------------------
# unit-aware analysis edge cases
# ---------------------------------------------------------------------------


class TestAnalysisEdgeCases:
    def test_unitless_static_power_raises_like_the_naive_walk(self):
        ctx = xpdl_init_from_model(
            ir_from_spec(("system", {}, [("cpu", {"static_power": "5"}, [])]))
        )
        with pytest.raises(UnitError):
            ctx.total_static_power()

    def test_malformed_static_power_raises_for_the_same_node(self):
        # The dense pass reads carriers in reverse document order, so of
        # several malformed values the last one raises; a non-physical
        # carrier is never read, a physical one under it is.
        spec = (
            "system",
            {},
            [
                ("cpu", {"static_power": "bad-cpu"}, []),
                ("software", {"static_power": "bad-software"}, [
                    ("gpu", {"static_power": "bad-gpu"}, []),
                ]),
                ("properties", {"static_power": "bad-properties"}, []),
            ],
        )
        ir = ir_from_spec(spec)
        with pytest.raises(UnitError) as want:
            analysis_oracle.static_power_w(ir)
        assert "bad-gpu" in str(want.value)
        for ctx in (
            xpdl_init_from_model(ir),
            xpdl_init_from_model(IRModel.from_bytes(ir.to_bytes())),
        ):
            for _ in range(2):  # and again: a failed build memoizes nothing
                with pytest.raises(UnitError) as got:
                    ctx.total_static_power()
                assert str(got.value) == str(want.value)

    def test_placeholder_static_power_is_skipped(self):
        ctx = xpdl_init_from_model(
            ir_from_spec(
                (
                    "system",
                    {},
                    [
                        ("cpu", {"static_power": "?"}, []),
                        ("gpu", {"static_power": "3", "static_power_unit": "W"}, []),
                    ],
                )
            )
        )
        assert ctx.total_static_power().to("W") == pytest.approx(3)

    def test_non_physical_subtrees_are_pruned(self):
        # cores under <software> are descriptive, not physical
        ctx = xpdl_init_from_model(
            ir_from_spec(
                (
                    "system",
                    {},
                    [
                        ("core", {}, []),
                        ("software", {}, [("core", {}, [])]),
                    ],
                )
            )
        )
        assert ctx.count_cores() == 1
        assert ctx.count_kind("core") == 1

    def test_memo_build_is_counted_once_per_analysis(self):
        ir = ir_from_spec(SAMPLE_SPEC)
        with use_observer(Observer()) as obs:
            ctx = xpdl_init_from_model(ir)
            for _ in range(5):
                ctx.count_cores()
                ctx.count_cuda_devices()
                ctx.total_static_power()
            assert obs.counter("runtime.analysis_memo_builds") == 3


# ---------------------------------------------------------------------------
# property-based equivalence: compiled plans vs the naive evaluator
# ---------------------------------------------------------------------------

_TAGS = ("a", "b", "c")


@st.composite
def _ir_specs(draw, depth=0):
    kind = draw(st.sampled_from(_TAGS))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(("x", "y")), st.sampled_from(("0", "1")), max_size=2
        )
    )
    if depth >= 2:
        return (kind, attrs, [])
    children = draw(st.lists(_ir_specs(depth=depth + 1), max_size=3))
    return (kind, attrs, children)


_SEGMENTS = st.tuples(
    st.sampled_from(("", "//")),
    st.sampled_from(_TAGS + ("*",)),
    st.sampled_from(("", "[0]", "[1]", "[@x]", "[@x='1']", "[@x][0]")),
).map(lambda t: "".join(t))


class TestCompiledEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(spec=_ir_specs(), segments=st.lists(_SEGMENTS, min_size=1, max_size=3))
    def test_plans_match_the_naive_evaluator(self, spec, segments):
        ctx = xpdl_init_from_model(ir_from_spec(("root", {}, [spec])))
        path = "/".join(segments).replace("///", "//")
        compiled = query_all(ctx, path)
        naive = query_all_naive(ctx, path)
        assert compiled == naive  # same nodes, same order
        assert [h.index for h in compiled] == [h.index for h in naive]

    @settings(max_examples=100, deadline=None)
    @given(
        path=st.text(
            alphabet="ab/*[]@='x01 ",
            min_size=1,
            max_size=12,
        )
    )
    def test_arbitrary_text_agrees_on_error_or_result(self, path):
        ctx = xpdl_init_from_model(
            ir_from_spec(
                ("root", {}, [("a", {"x": "1"}, [("b", {}, [])]), ("a", {}, [])])
            )
        )
        try:
            compiled = query_all(ctx, path)
        except QueryError:
            with pytest.raises(QueryError):
                query_all_naive(ctx, path)
            return
        assert compiled == query_all_naive(ctx, path)

    @settings(max_examples=100, deadline=None)
    @given(spec=_ir_specs())
    def test_find_all_and_descendants_match_walks(self, spec):
        ctx = xpdl_init_from_model(ir_from_spec(("root", {}, [spec])))
        ir = ctx.ir
        for kind in _TAGS:
            assert [h.index for h in ctx.find_all(kind)] == [
                n.index for n in ir.walk() if n.kind == kind
            ]
            assert [h.index for h in ctx.root.descendants(kind)] == [
                n.index for n in ir.walk() if n is not ir.root and n.kind == kind
            ]


_PHYS_KINDS = ("node", "core", "device", "gpu", "software", "properties")


@st.composite
def _phys_specs(draw, depth=0):
    kind = draw(st.sampled_from(_PHYS_KINDS))
    attrs = {}
    if draw(st.booleans()):
        attrs = {
            "static_power": draw(st.sampled_from(("1", "2.5", "0.1", "0.7", "0", "?"))),
            "static_power_unit": draw(st.sampled_from(("W", "mW"))),
        }
    children = []
    if depth < 2:
        children = draw(st.lists(_phys_specs(depth=depth + 1), max_size=3))
    if kind in ("device", "gpu"):
        for model in draw(st.lists(st.sampled_from(("cuda6.0", "opencl")), max_size=2)):
            children.append(("programming_model", {"type": model}, []))
    return (kind, attrs, children)


class TestAnalysisEquivalence:
    """Memoized aggregates vs independently written recursive references,
    and bit for bit vs the dense post-order pass (``analysis_oracle``),
    on a freshly serialized model and on one reopened from its bytes."""

    @staticmethod
    def _ref_count(ir, i, kind):
        node = ir.nodes[i]
        if node.kind in NON_PHYSICAL_KINDS:
            return 0
        return int(node.kind == kind) + sum(
            TestAnalysisEquivalence._ref_count(ir, c, kind) for c in node.children
        )

    @staticmethod
    def _ref_cuda(ir, i):
        node = ir.nodes[i]
        if node.kind in NON_PHYSICAL_KINDS:
            return 0
        own = 0
        if node.kind in ("device", "gpu") and any(
            ir.nodes[c].kind == "programming_model"
            and "cuda" in ir.nodes[c].attrs.get("type", "").lower()
            for c in node.children
        ):
            own = 1
        return own + sum(
            TestAnalysisEquivalence._ref_cuda(ir, c) for c in node.children
        )

    @staticmethod
    def _ref_power_w(ir, i):
        from repro.units import POWER, read_metric

        node = ir.nodes[i]
        if node.kind in NON_PHYSICAL_KINDS:
            return 0.0
        q = read_metric(node.attrs, "static_power", expect=POWER)
        own = q.magnitude if q is not None else 0.0
        return own + sum(
            TestAnalysisEquivalence._ref_power_w(ir, c) for c in node.children
        )

    @settings(max_examples=150, deadline=None)
    @given(spec=_phys_specs())
    def test_counts_and_power_match_reference(self, spec):
        ir = ir_from_spec(("system", {}, [spec]))
        kinds = ("core", "device", "gpu", "software")
        dense_counts = {kind: analysis_oracle.kind_counts(ir, kind) for kind in kinds}
        dense_cuda = analysis_oracle.cuda_counts(ir)
        dense_power = analysis_oracle.static_power_w(ir)
        image_ir = IRModel.from_bytes(ir.to_bytes())
        for ctx in (xpdl_init_from_model(ir), xpdl_init_from_model(image_ir)):
            for i in range(len(ir)):
                under = ctx.handle(i)
                for kind in kinds:
                    got = ctx.count_kind(kind, under=under)
                    assert got == dense_counts[kind][i], (i, kind)
                    assert got == self._ref_count(ir, i, kind), (i, kind)
                cuda = ctx.count_cuda_devices(under=under)
                assert cuda == dense_cuda[i] == self._ref_cuda(ir, i)
                watts = ctx.total_static_power(under=under).magnitude
                assert watts == dense_power[i], i  # bit for bit
                assert watts == pytest.approx(
                    self._ref_power_w(ir, i), rel=1e-12, abs=1e-15
                )


# ---------------------------------------------------------------------------
# regression: the paper corpus through both engines
# ---------------------------------------------------------------------------

LIU_PATHS = (
    "//cache[@name='L3']",
    "//device[@type='Nvidia_K20c']",
    "//group[@prefix='SM']",
    "node/cpu/core",
    "//core[0]",
    "//installed",
    "//*[@id='gpu1']",
    "node[0]/*",
)


class TestLiuEquivalence:
    def test_compiled_matches_naive_on_liu(self, liu_ctx):
        for path in LIU_PATHS:
            assert query_all(liu_ctx, path) == query_all_naive(liu_ctx, path), path

    def test_analysis_matches_walk_on_liu(self, liu_ctx):
        walked_cores = sum(
            1 for n in liu_ctx._physical_walk(liu_ctx.ir.root) if n.kind == "core"
        )
        assert liu_ctx.count_cores() == walked_cores == 2500
        assert liu_ctx.count_cuda_devices() == 1
        assert liu_ctx.total_static_power().to("W") == pytest.approx(33)

    def test_query_first_uses_the_compiled_engine(self, liu_ctx):
        h = query_first(liu_ctx, "//cache[@name='L3']")
        assert h is not None and h is query_all(liu_ctx, "//cache[@name='L3']")[0]
