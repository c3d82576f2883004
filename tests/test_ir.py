"""Tests for the runtime IR: structure, binary/JSON round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.diagnostics import QueryError
from repro.ir import IRModel, MAGIC
from repro.model import from_document
from repro.xpdlxml import parse_xml


def model(text: str):
    return from_document(parse_xml(text))


SAMPLE = (
    "<system id='s'><node id='n'>"
    "<cpu id='c' frequency='2' frequency_unit='GHz'><core/><core/></cpu>"
    "<memory id='m' size='16' unit='GB'/>"
    "</node></system>"
)


class TestStructure:
    def test_from_model_flattens(self):
        ir = IRModel.from_model(model(SAMPLE))
        assert len(ir) == 6
        assert ir.root.kind == "system"
        assert ir.root.parent is None

    def test_parent_child_links(self):
        ir = IRModel.from_model(model(SAMPLE))
        node = ir.by_id("n")
        assert ir.parent_of(node).kind == "system"
        kinds = [c.kind for c in ir.children_of(node)]
        assert kinds == ["cpu", "memory"]

    def test_by_id(self):
        ir = IRModel.from_model(model(SAMPLE))
        assert ir.by_id("m").kind == "memory"
        assert ir.by_id("ghost") is None

    def test_walk_preorder(self):
        ir = IRModel.from_model(model(SAMPLE))
        kinds = [n.kind for n in ir.walk()]
        assert kinds == ["system", "node", "cpu", "core", "core", "memory"]

    def test_walk_subtree(self):
        ir = IRModel.from_model(model(SAMPLE))
        cpu = ir.by_id("c")
        assert [n.kind for n in ir.walk(cpu)] == ["cpu", "core", "core"]

    def test_to_model_roundtrip(self):
        m = model(SAMPLE)
        rebuilt = IRModel.from_model(m).to_model()

        def shape(e):
            return (e.kind, tuple(sorted(e.attrs.items())), tuple(shape(c) for c in e.children))

        assert shape(rebuilt) == shape(m)

    def test_meta_carried(self):
        ir = IRModel.from_model(model(SAMPLE), {"system": "s", "tool": "t"})
        assert ir.meta["system"] == "s"


class TestBinaryFormat:
    def test_roundtrip(self):
        ir = IRModel.from_model(model(SAMPLE), {"k": "v"})
        data = ir.to_bytes()
        assert data.startswith(MAGIC)
        ir2 = IRModel.from_bytes(data)
        assert len(ir2) == len(ir)
        assert ir2.meta == {"k": "v"}
        for a, b in zip(ir.nodes, ir2.nodes):
            assert (a.kind, a.parent, a.attrs, a.children) == (
                b.kind,
                b.parent,
                b.attrs,
                b.children,
            )

    def test_bad_magic_rejected(self):
        with pytest.raises(QueryError):
            IRModel.from_bytes(b"NOTXPDL0" + b"\x00" * 16)

    def test_string_pool_dedup(self):
        # 100 cores share kind/attr strings: size must grow sublinearly.
        def sizes(to_bytes):
            small = to_bytes(
                IRModel.from_model(
                    model("<cpu id='c'>" + "<core frequency='2'/>" * 2 + "</cpu>")
                )
            )
            big = to_bytes(
                IRModel.from_model(
                    model(
                        "<cpu id='c'>" + "<core frequency='2'/>" * 100 + "</cpu>"
                    )
                )
            )
            return (len(big) - len(small)) / 98

        # Records plus the persisted index (pre/size/doc, buckets, attr
        # sets): a bounded handful of u32s per node, no strings repeated.
        assert sizes(IRModel.to_bytes) < 72

    def test_file_roundtrip(self, tmp_path):
        ir = IRModel.from_model(model(SAMPLE))
        path = str(tmp_path / "m.xir")
        ir.save(path)
        ir2 = IRModel.load(path)
        assert len(ir2) == len(ir)


class TestJsonFormat:
    def test_roundtrip(self):
        ir = IRModel.from_model(model(SAMPLE), {"k": "v"})
        ir2 = IRModel.from_json(ir.to_json())
        assert [n.attrs for n in ir2.nodes] == [n.attrs for n in ir.nodes]
        assert ir2.meta == ir.meta

    def test_json_file_by_extension(self, tmp_path):
        ir = IRModel.from_model(model(SAMPLE))
        path = str(tmp_path / "m.json")
        ir.save(path)
        text = open(path).read()
        assert text.lstrip().startswith("{")
        assert len(IRModel.load(path)) == len(ir)

    def test_bad_json_rejected(self):
        with pytest.raises(QueryError):
            IRModel.from_json('{"format": "nope", "nodes": []}')


# ---------------------------------------------------------------------------
# property-based round-trip over random trees
# ---------------------------------------------------------------------------

_kind = st.sampled_from(["system", "node", "cpu", "core", "cache", "memory"])
_attr = st.sampled_from(["id", "name", "size", "unit", "frequency", "type"])
_value = st.text(min_size=0, max_size=12)


@st.composite
def ir_trees(draw, depth=3):
    m = model(f"<{draw(_kind)}/>")
    for _ in range(draw(st.integers(0, 3))):
        m.attrs[draw(_attr)] = draw(_value)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            m.add(draw(ir_trees(depth=depth - 1)))
    return m


@given(ir_trees())
def test_binary_roundtrip_property(tree):
    ir = IRModel.from_model(tree)
    ir2 = IRModel.from_bytes(ir.to_bytes())
    assert [(n.kind, n.parent, n.attrs) for n in ir.nodes] == [
        (n.kind, n.parent, n.attrs) for n in ir2.nodes
    ]


@given(ir_trees())
def test_json_roundtrip_property(tree):
    ir = IRModel.from_model(tree)
    ir2 = IRModel.from_json(ir.to_json())
    assert [(n.kind, n.parent, n.attrs) for n in ir.nodes] == [
        (n.kind, n.parent, n.attrs) for n in ir2.nodes
    ]


def test_paper_system_ir(liu_server):
    ir = IRModel.from_model(liu_server.root, {"system": "liu_gpu_server"})
    ir2 = IRModel.from_bytes(ir.to_bytes())
    assert len(ir2) == len(ir) == 2694
