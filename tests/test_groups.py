"""Tests for homogeneous group expansion."""

import pytest

from repro.diagnostics import CompositionError, DiagnosticSink
from repro.groups import count_expanded, expand_groups, expanded_members
from repro.model import from_document
from repro.params import Value
from repro.units import Quantity
from repro.xpdlxml import parse_xml


def model(text: str):
    return from_document(parse_xml(text))


class TestSingleChildExpansion:
    def test_ids_assigned_from_prefix(self):
        g = model(
            '<group prefix="main_mem" quantity="4"><memory type="DDR3_4G"/></group>'
        )
        out = expand_groups(g)
        members = expanded_members(out)
        assert [m.ident for m in members] == [
            "main_mem0",
            "main_mem1",
            "main_mem2",
            "main_mem3",
        ]
        assert all(m.kind == "memory" for m in members)

    def test_ranks_recorded(self):
        g = model('<group prefix="n" quantity="2"><node/></group>')
        out = expand_groups(g)
        assert [m.attrs["rank"] for m in out.children] == ["0", "1"]

    def test_existing_id_kept(self):
        g = model('<group prefix="x" quantity="2"><core id="fixed"/></group>')
        out = expand_groups(g)
        assert [m.ident for m in out.children] == ["fixed", "fixed"]

    def test_no_prefix_no_ids(self):
        g = model('<group quantity="3"><core/></group>')
        out = expand_groups(g)
        assert all(m.ident is None for m in out.children)
        assert len(out.children) == 3


class TestMultiChildExpansion:
    def test_members_wrapped(self):
        # Listing 1's inner group: core + private L1 per member.
        g = model(
            '<group prefix="core" quantity="2">'
            "<core/><cache name='L1' size='32' unit='KiB'/></group>"
        )
        out = expand_groups(g)
        members = expanded_members(out)
        assert [m.ident for m in members] == ["core0", "core1"]
        assert all(m.kind == "group" for m in members)
        for m in members:
            kinds = [c.kind for c in m.children]
            assert kinds == ["core", "cache"]

    def test_nested_expansion_multiplies(self):
        g = model(
            '<group prefix="outer" quantity="2">'
            '<group prefix="inner" quantity="3"><core/></group>'
            "<cache name='L2' size='256' unit='KiB'/></group>"
        )
        out = expand_groups(g)
        assert count_expanded(out, "core") == 6
        assert count_expanded(out, "cache") == 2


class TestParameterizedQuantity:
    def test_param_quantity_resolved(self):
        g = model('<group prefix="SM" quantity="num_SM"><core/></group>')
        env: dict[str, Value] = {"num_SM": Quantity.dimensionless(13)}
        out = expand_groups(g, env)
        assert len(out.children) == 13

    def test_unresolvable_quantity_reported(self):
        g = model('<group quantity="nope"><core/></group>')
        sink = DiagnosticSink()
        out = expand_groups(g, {}, sink)
        assert any(d.code == "XPDL0400" for d in sink)
        assert out.attrs.get("expanded") != "true"

    def test_negative_quantity_reported(self):
        g = model('<group quantity="-2"><core/></group>')
        sink = DiagnosticSink()
        out = expand_groups(g, {}, sink)
        assert [d.code for d in sink] == ["XPDL0401"]
        assert out.attrs.get("expanded") != "true"

    def test_zero_quantity(self):
        g = model('<group prefix="x" quantity="0"><core/></group>')
        out = expand_groups(g)
        assert out.children == []
        assert out.attrs["member_count"] == "0"


class TestSafety:
    def test_member_budget(self):
        g = model('<group quantity="100"><group quantity="100"><group quantity="200"><core/></group></group></group>')
        with pytest.raises(CompositionError):
            expand_groups(g, max_members=100_000)

    def test_original_not_mutated(self):
        g = model('<group prefix="c" quantity="2"><core/></group>')
        expand_groups(g)
        assert len(g.children) == 1

    def test_already_expanded_untouched(self):
        g = model('<group prefix="c" quantity="2"><core/></group>')
        once = expand_groups(g)
        twice = expand_groups(once)
        assert count_expanded(twice, "core") == 2

    def test_expanded_members_guard(self):
        g = model('<group quantity="2"><core/></group>')
        with pytest.raises(CompositionError):
            expanded_members(g)

    def test_heterogeneous_group_untouched(self):
        g = model('<group id="cpu1"><socket/><socket/></group>')
        out = expand_groups(g)
        assert len(out.children) == 2
        assert out.attrs.get("expanded") != "true"
