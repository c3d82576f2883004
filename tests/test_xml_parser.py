"""Unit tests for the from-scratch XML parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.diagnostics import DiagnosticSink, ParseError
from repro.xpdlxml import (
    XmlCData,
    XmlComment,
    XmlPI,
    XmlText,
    parse_xml,
)
from repro.xpdlxml.parser import MAX_NESTING


class TestBasicParsing:
    def test_simple_element(self):
        doc = parse_xml("<cpu/>")
        assert doc.root.tag == "cpu"
        assert doc.root.children == []

    def test_attributes(self):
        doc = parse_xml('<cpu name="X" frequency="2"/>')
        assert doc.root.get("name") == "X"
        assert doc.root.get("frequency") == "2"
        assert doc.root.get("missing") is None
        assert doc.root.get("missing", "d") == "d"

    def test_attribute_order_preserved(self):
        doc = parse_xml('<e b="1" a="2" c="3"/>')
        assert [k for k, _ in doc.root.attr_items()] == ["b", "a", "c"]

    def test_nested_elements(self):
        doc = parse_xml("<a><b><c/></b><b/></a>")
        assert len(doc.root.elements("b")) == 2
        assert doc.root.elements("b")[0].first("c") is not None

    def test_text_content(self):
        doc = parse_xml("<a>hello <b/>world</a>")
        assert doc.root.text_content() == "hello world"

    def test_xml_declaration(self):
        doc = parse_xml('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.xml_decl == {"version": "1.0", "encoding": "UTF-8"}

    def test_single_quotes(self):
        doc = parse_xml("<a x='1'/>")
        assert doc.root.get("x") == "1"

    def test_whitespace_tolerance(self):
        doc = parse_xml('<a\n  x = "1"\n  y="2"\n/>')
        assert doc.root.get("x") == "1"


class TestEntities:
    def test_predefined_entities(self):
        doc = parse_xml("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text_content() == "<>&'\""

    def test_numeric_character_references(self):
        doc = parse_xml("<a>&#65;&#x42;</a>")
        assert doc.root.text_content() == "AB"

    def test_entities_in_attributes(self):
        doc = parse_xml('<a x="a&amp;b"/>')
        assert doc.root.get("x") == "a&b"

    def test_unknown_entity_reported(self):
        sink = DiagnosticSink()
        parse_xml("<a>&bogus;</a>", sink=sink)
        assert any(d.code == "XML0012" for d in sink)


def _decoded(ref: str, in_attribute: bool):
    """Parse ``ref`` in an attribute value or in text: (decoded, codes)."""
    sink = DiagnosticSink()
    if in_attribute:
        doc = parse_xml(f'<a v="x{ref}y"/>', sink=sink)
        value = doc.root.get("v")
    else:
        doc = parse_xml(f"<a>x{ref}y</a>", sink=sink)
        value = doc.root.text_content()
    return value, [d.code for d in sink]


class TestCharacterReferences:
    """Only Unicode scalar values decode; the rest is XML0011, never a crash."""

    @pytest.mark.parametrize("in_attribute", [False, True])
    @pytest.mark.parametrize(
        "ref",
        ["&#99999999999;", "&#x1FFFFFFFFFFFFFFFF;", "&#xD800;", "&#xDFFF;", "&#55296;",
         "&#x110000;", "&#1114112;", "&#-1;", "&#x;"],
    )
    def test_out_of_range_or_surrogate_is_xml0011(self, ref, in_attribute):
        value, codes = _decoded(ref, in_attribute)
        assert codes == ["XML0011"]
        assert value == "xy"

    @pytest.mark.parametrize("in_attribute", [False, True])
    @pytest.mark.parametrize(
        "ref, char",
        [("&#x10FFFF;", "\U0010ffff"), ("&#xD7FF;", "\ud7ff"), ("&#xE000;", "\ue000"),
         ("&#0;", "\x00"), ("&#65;", "A")],
    )
    def test_scalar_values_decode(self, ref, char, in_attribute):
        assert _decoded(ref, in_attribute) == (f"x{char}y", [])

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.one_of(
            st.integers(0, 2**64),
            st.integers(0xD700, 0xE100),
            st.integers(0x10FF00, 0x110100),
        ),
        hexadecimal=st.booleans(),
        in_attribute=st.booleans(),
    )
    def test_any_reference_decodes_or_is_xml0011(self, n, hexadecimal, in_attribute):
        ref = f"&#x{n:x};" if hexadecimal else f"&#{n};"
        value, codes = _decoded(ref, in_attribute)
        if n <= 0x10FFFF and not 0xD800 <= n <= 0xDFFF:
            assert (value, codes) == (f"x{chr(n)}y", [])
        else:
            assert (value, codes) == ("xy", ["XML0011"])


def _nested(levels: int, inner: str = "") -> str:
    """A root ``r`` holding ``levels - 1`` nested ``g``s, then a sibling."""
    return "<r>" + "<g>" * (levels - 1) + inner + "</g>" * (levels - 1) + "<after/></r>"


def _depth(element) -> int:
    depth = 0
    while element is not None:
        depth += 1
        kids = element.elements("g")
        element = kids[0] if kids else None
    return depth


class TestNesting:
    def test_the_limit_is_256_levels(self):
        assert MAX_NESTING == 256

    def test_256_levels_parse(self):
        sink = DiagnosticSink()
        doc = parse_xml(_nested(MAX_NESTING), sink=sink)
        assert list(sink) == []
        assert _depth(doc.root) == MAX_NESTING

    def test_257th_level_is_xml0033_and_its_subtree_is_skipped(self):
        sink = DiagnosticSink()
        text = _nested(MAX_NESTING, "<x a='>'/><!-- </g> --><![CDATA[</g>]]><?p </g>?>")
        doc = parse_xml(text, sink=sink)
        assert [d.code for d in sink] == ["XML0033"]
        # At the opening tag of the element past the limit.
        assert sink.diagnostics[0].span.start.offset == 3 + 3 * (MAX_NESTING - 1)
        assert _depth(doc.root) == MAX_NESTING
        # Parsing resumes after the skipped subtree.
        assert [e.tag for e in doc.root.elements()] == ["g", "after"]

    @pytest.mark.parametrize("levels", [600, 5000])
    def test_deep_documents_do_not_exhaust_the_stack(self, levels):
        sink = DiagnosticSink()
        doc = parse_xml(_nested(levels), sink=sink)
        assert [d.code for d in sink] == ["XML0033"]
        assert [e.tag for e in doc.root.elements()] == ["g", "after"]

    def test_strict_mode_raises(self):
        with pytest.raises(ParseError):
            parse_xml(_nested(MAX_NESTING + 1), strict=True)


class TestMarkup:
    def test_comment(self):
        doc = parse_xml("<a><!-- note --><b/></a>")
        comments = [c for c in doc.root.children if isinstance(c, XmlComment)]
        assert comments[0].text == " note "

    def test_cdata(self):
        doc = parse_xml("<a><![CDATA[<raw> & text]]></a>")
        cdata = [c for c in doc.root.children if isinstance(c, XmlCData)]
        assert cdata[0].text == "<raw> & text"

    def test_processing_instruction(self):
        doc = parse_xml("<a><?target some data?></a>")
        pis = [c for c in doc.root.children if isinstance(c, XmlPI)]
        assert pis[0].target == "target"
        assert pis[0].data == "some data"

    def test_doctype_skipped(self):
        doc = parse_xml("<!DOCTYPE a><a/>")
        assert doc.root.tag == "a"

    def test_prolog_comment(self):
        doc = parse_xml("<!-- header --><a/>")
        assert any(isinstance(n, XmlComment) for n in doc.prolog)


class TestPaperQuirks:
    """The paper's listings contain small XML violations we must survive."""

    def test_unquoted_attribute_value(self):
        # Listing 1 writes quantity=2.
        sink = DiagnosticSink()
        doc = parse_xml('<group prefix="core" quantity=2 />', sink=sink)
        assert doc.root.get("quantity") == "2"
        assert any(d.code == "XML0013" for d in sink)
        assert not sink.has_errors()

    def test_valueless_attribute(self):
        sink = DiagnosticSink()
        doc = parse_xml("<device configurable/>", sink=sink)
        assert doc.root.get("configurable") == "true"
        assert any(d.code == "XML0017" for d in sink)


class TestErrors:
    def test_mismatched_end_tag_recovers(self):
        sink = DiagnosticSink()
        doc = parse_xml("<a><b></c></a>", sink=sink)
        assert any(d.code == "XML0031" for d in sink)
        assert doc.root.tag == "a"

    def test_unterminated_comment(self):
        sink = DiagnosticSink()
        parse_xml("<a><!-- oops</a>", sink=sink)
        assert any(d.code == "XML0004" for d in sink)

    def test_duplicate_attribute(self):
        sink = DiagnosticSink()
        parse_xml('<a x="1" x="2"/>', sink=sink)
        assert any(d.code == "XML0018" for d in sink)

    def test_multiple_roots(self):
        sink = DiagnosticSink()
        doc = parse_xml("<a/><b/><c/>", sink=sink)
        assert [d.code for d in sink] == ["XML0020", "XML0020"]
        assert doc.root.tag == "a"  # the first root stays

    def test_no_root(self):
        sink = DiagnosticSink()
        parse_xml("   ", sink=sink)
        assert any(d.code == "XML0022" for d in sink)

    def test_eof_inside_element(self):
        sink = DiagnosticSink()
        parse_xml("<a><b>", sink=sink)
        assert any(d.code == "XML0032" for d in sink)

    def test_strict_mode_raises(self):
        with pytest.raises(ParseError):
            parse_xml("<a><b></c></a>", strict=True)

    def test_strict_mode_ok_for_valid(self):
        doc = parse_xml("<a><b/></a>", strict=True)
        assert doc.root.tag == "a"


class TestSpans:
    def test_element_span_covers_whole_element(self):
        text = '<a>\n  <b x="1"/>\n</a>'
        doc = parse_xml(text, source_name="t.xpdl")
        b = doc.root.elements("b")[0]
        assert b.span.source == "t.xpdl"
        assert b.span.start.line == 2

    def test_attribute_value_span(self):
        doc = parse_xml('<a name="hello"/>')
        span = doc.root.attr_span("name")
        assert span.start.offset > 0

    def test_iter(self):
        doc = parse_xml("<a><b><c/></b><c/></a>")
        assert len(list(doc.root.iter("c"))) == 2
        assert [e.tag for e in doc.root.iter()] == ["a", "b", "c", "c"]
