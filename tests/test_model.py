"""Unit tests for the model object layer."""

import sys

import pytest

from repro.ir import IRModel
from repro.model import (
    Cache,
    Channel,
    Core,
    Cpu,
    GenericElement,
    Group,
    ModelElement,
    ModelLevel,
    from_document,
    to_document,
)
from repro.units import Quantity
from repro.xpdlxml import parse_xml, write_xml


def parse_model(text: str) -> ModelElement:
    return from_document(parse_xml(text))


class TestIdentity:
    def test_meta_level(self):
        m = parse_model('<cpu name="X"/>')
        assert m.level() is ModelLevel.META
        assert m.name == "X" and m.ident is None

    def test_concrete_level(self):
        m = parse_model('<cpu id="c0" type="X"/>')
        assert m.level() is ModelLevel.CONCRETE
        assert m.ident == "c0" and m.type_ref == "X"

    def test_anonymous_level(self):
        m = parse_model("<core/>")
        assert m.level() is ModelLevel.ANONYMOUS
        assert m.label() == "<core>"

    def test_extends_parsing(self):
        m = parse_model('<device name="A" extends="B, C"/>')
        assert m.extends == ("B", "C")
        assert parse_model('<device name="A"/>').extends == ()


class TestDispatch:
    def test_known_tags_get_typed_classes(self):
        m = parse_model('<cpu name="X"><core/><cache name="L1" size="1" unit="KiB"/></cpu>')
        assert isinstance(m, Cpu)
        assert isinstance(m.children[0], Core)
        assert isinstance(m.children[1], Cache)

    def test_unknown_tag_generic(self):
        m = parse_model("<fpga name='F'/>")
        assert isinstance(m, GenericElement)
        assert m.kind == "fpga"

    def test_generic_clone_keeps_tag(self):
        m = parse_model("<fpga x='1'><lut/></fpga>")
        c = m.clone()
        assert c.kind == "fpga"
        assert c.children[0].kind == "lut"


class TestTypedAccessors:
    def test_quantity_property(self):
        core = parse_model('<core frequency="2" frequency_unit="GHz"/>')
        assert core.frequency.to("GHz") == pytest.approx(2)

    def test_quantity_property_absent(self):
        assert parse_model("<core/>").frequency is None

    def test_quantity_property_setter(self):
        core = parse_model("<core/>")
        core.frequency = Quantity.of(1.5, "GHz")
        assert core.attrs["frequency_unit"] == "Hz"
        assert core.frequency.to("GHz") == pytest.approx(1.5)

    def test_int_property(self):
        cache = parse_model('<cache name="L1" size="32" unit="KiB" sets="8"/>')
        assert cache.sets == 8

    def test_bool_property_default(self):
        from repro.model import PowerDomain

        pd = parse_model('<power_domain name="p"/>')
        assert isinstance(pd, PowerDomain)
        assert pd.enable_switch_off is True
        pd2 = parse_model('<power_domain name="p" enableSwitchOff="false"/>')
        assert pd2.enable_switch_off is False

    def test_channel_cost_models(self):
        ch = parse_model(
            '<channel name="up" max_bandwidth="1" max_bandwidth_unit="GB/s" '
            'time_offset_per_message="1" time_offset_per_message_unit="us" '
            'energy_per_byte="10" energy_per_byte_unit="pJ"/>'
        )
        assert isinstance(ch, Channel)
        t = ch.transfer_time(10**9)
        assert t.to("s") == pytest.approx(1.0 + 1e-6, rel=1e-3)
        e = ch.transfer_energy(1000)
        assert e.to("nJ") == pytest.approx(10.0)

    def test_group_quantity(self):
        g = parse_model('<group prefix="core" quantity="4"/>')
        assert isinstance(g, Group)
        assert g.is_homogeneous()
        assert g.quantity_literal() == 4
        g2 = parse_model('<group quantity="num_SM"/>')
        assert g2.quantity_literal() is None


class TestTree:
    def test_walk_and_find(self):
        m = parse_model(
            "<cpu name='X'><group quantity='2'><core/><cache name='L1' size='1' unit='KiB'/></group></cpu>"
        )
        assert len(m.find_all(Core)) == 1
        assert len(list(m.walk())) == 4
        assert m.find_child(Group) is not None
        assert m.find_child(Cache) is None  # cache is nested deeper

    def test_walk_is_the_recursive_pre_order(self):
        def recursive(e):
            yield e
            for c in e.children:
                yield from recursive(c)

        m = parse_model(
            "<system id='s'><node><cpu id='c'><core/><core/></cpu>"
            "<memory id='m'/></node><node><gpu id='g'/></node><cache/></system>"
        )
        assert list(m.walk()) == list(recursive(m))

    def test_walk_past_the_recursion_limit(self):
        # A chain of groups, each also holding a core, deeper than the
        # recursion limit; its pre-order is the construction order.
        depth = sys.getrecursionlimit() + 100
        root = elem = Group()
        expected = [root]
        for _ in range(depth):
            core, elem = elem.add(Core()), elem.add(Group())
            expected += [core, elem]
        assert list(root.walk()) == expected
        assert root.find_all(Core) == expected[1::2]
        assert len(IRModel.from_model(root)) == 2 * depth + 1

    def test_parent_links(self):
        m = parse_model("<cpu name='X'><core/></cpu>")
        core = m.children[0]
        assert core.parent is m
        assert list(core.ancestors()) == [m]

    def test_remove(self):
        m = parse_model("<cpu name='X'><core/></cpu>")
        core = m.children[0]
        m.remove(core)
        assert m.children == [] and core.parent is None

    def test_path(self):
        m = parse_model(
            "<system id='s'><node><cpu id='c'/></node><node/></system>"
        )
        cpu = m.find_all(Cpu)[0]
        assert cpu.path() == "system#s/node[0]/cpu#c"

    def test_clone_is_deep(self):
        m = parse_model("<cpu name='X'><core/></cpu>")
        c = m.clone()
        c.children[0].attrs["frequency"] = "1"
        assert "frequency" not in m.children[0].attrs


class TestRoundTrip:
    def test_model_to_xml_roundtrip(self):
        text = (
            '<cpu name="Intel_Xeon_E5_2630L">\n'
            '  <group prefix="core" quantity="4">\n'
            '    <core frequency="2" frequency_unit="GHz" />\n'
            '    <cache name="L1" size="32" unit="KiB" />\n'
            "  </group>\n"
            '  <cache name="L3" size="15" unit="MiB" />\n'
            "</cpu>"
        )
        m = parse_model(text)
        out = write_xml(to_document(m))
        m2 = from_document(parse_xml(out))

        def shape(e):
            return (e.kind, tuple(sorted(e.attrs.items())), tuple(shape(c) for c in e.children))

        assert shape(m2) == shape(m)

    def test_plain_attrs_excludes_structural(self):
        m = parse_model('<cpu name="X" type="T" frequency="2"/>')
        assert m.plain_attrs() == {"frequency": "2"}
