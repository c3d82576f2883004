"""Tests for the DOM path query mini-language."""

import pytest

from repro.diagnostics import QueryError
from repro.xpdlxml import find_all, find_first, parse_xml

DOC = """
<system id="s">
  <node id="n0">
    <cpu id="c0"><cache name="L1"/><cache name="L2"/></cpu>
    <cpu id="c1"><cache name="L1"/></cpu>
  </node>
  <node id="n1">
    <cpu id="c2"><cache name="L3" size="15"/></cpu>
  </node>
</system>
"""


@pytest.fixture
def root():
    return parse_xml(DOC).root


class TestPaths:
    def test_child_tag(self, root):
        assert len(find_all(root, "node")) == 2

    def test_nested_path(self, root):
        cpus = find_all(root, "node/cpu")
        assert [c.get("id") for c in cpus] == ["c0", "c1", "c2"]

    def test_descendant_axis(self, root):
        caches = find_all(root, "//cache")
        assert len(caches) == 4

    def test_descendant_mid_path(self, root):
        l1s = find_all(root, "node/cpu/cache[@name='L1']")
        assert len(l1s) == 2

    def test_index_predicate(self, root):
        second = find_all(root, "node[1]")
        assert second[0].get("id") == "n1"

    def test_index_out_of_range(self, root):
        assert find_all(root, "node[9]") == []

    def test_attr_presence(self, root):
        sized = find_all(root, "//cache[@size]")
        assert len(sized) == 1

    def test_attr_equality(self, root):
        l3 = find_first(root, "//cache[@name='L3']")
        assert l3 is not None and l3.get("size") == "15"

    def test_wildcard(self, root):
        assert len(find_all(root, "node/*")) == 3

    def test_no_match_returns_empty(self, root):
        assert find_all(root, "gpu") == []
        assert find_first(root, "gpu") is None

    def test_combined_predicates(self, root):
        first_l1 = find_all(root, "//cache[@name='L1'][0]")
        assert len(first_l1) == 1

    def test_malformed_raises(self, root):
        with pytest.raises(QueryError):
            find_all(root, "node[")


class TestPredicateSemantics:
    """Index predicates follow XPath: they filter per context node."""

    TWO_PARENTS = (
        "<r>"
        "<a><b v='1'/><b v='2'/></a>"
        "<a><b v='3'/></a>"
        "</r>"
    )

    def test_index_selects_one_match_per_context_node(self):
        root = parse_xml(self.TWO_PARENTS).root
        assert [m.get("v") for m in find_all(root, "a/b[0]")] == ["1", "3"]

    def test_index_skips_contexts_without_enough_matches(self):
        root = parse_xml(self.TWO_PARENTS).root
        assert [m.get("v") for m in find_all(root, "a/b[1]")] == ["2"]

    def test_first_cpu_of_every_node(self, root):
        firsts = find_all(root, "node/cpu[0]")
        assert [c.get("id") for c in firsts] == ["c0", "c2"]

    def test_attr_then_index_per_context(self, root):
        # each node's first L1 cache: n0 has one, n1 has none
        l1s = find_all(root, "node/cpu/cache[@name='L1'][0]")
        assert len(l1s) == 2  # one per cpu context that has an L1


class TestMalformedPredicates:
    """Unparseable predicates raise instead of being silently dropped."""

    @pytest.mark.parametrize(
        "path",
        [
            "node[]",
            "node[@]",
            "node[1x]",
            "node[-1]",
            "node[@id=n0]",
            "node[@id='it''s']",
            "node[1][@]",
            # malformed behind a segment that matches nothing
            "gpu/node[",
            "gpu/node[@]",
        ],
    )
    def test_raises_query_error(self, root, path):
        with pytest.raises(QueryError):
            find_all(root, path)

    def test_well_formed_chain_still_works(self, root):
        assert find_all(root, "node[0]/cpu[@id='c1']")


# ---------------------------------------------------------------------------
# property-based check against an independent reference evaluator
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

_TAGS = ("a", "b", "c")


@st.composite
def _trees(draw, depth=0):
    tag = draw(st.sampled_from(_TAGS))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(("x", "y")), st.sampled_from(("0", "1")), max_size=2
        )
    )
    attr_text = "".join(f" {k}='{v}'" for k, v in attrs.items())
    if depth >= 2:
        return f"<{tag}{attr_text}/>"
    children = draw(st.lists(_trees(depth=depth + 1), max_size=3))
    return f"<{tag}{attr_text}>{''.join(children)}</{tag}>"


_SEGMENTS = st.tuples(
    st.sampled_from(("", "//")),
    st.sampled_from(_TAGS + ("*",)),
    st.sampled_from(("", "[0]", "[1]", "[@x]", "[@x='1']")),
).map(lambda t: "".join(t))


def _ref_eval(nodes, segment):
    """Reference evaluator: the XPath semantics, written independently."""
    descend = segment.startswith("//")
    rest = segment[2:] if descend else segment
    if "[" in rest:
        tag, pred = rest[: rest.index("[")], rest[rest.index("[") :]
    else:
        tag, pred = rest, ""
    out = []
    for node in nodes:
        if descend:
            cands = [e for ch in node.elements() for e in ch.iter(None)]
        else:
            cands = node.elements()
        local = [c for c in cands if tag == "*" or c.tag == tag]
        if pred == "[0]":
            local = local[:1]
        elif pred == "[1]":
            local = local[1:2]
        elif pred == "[@x]":
            local = [c for c in local if "x" in c]
        elif pred == "[@x='1']":
            local = [c for c in local if c.get("x") == "1"]
        for c in local:
            if not any(c is o for o in out):
                out.append(c)
    return out


class TestPathProperties:
    @settings(max_examples=200, deadline=None)
    @given(xml=_trees(), segments=st.lists(_SEGMENTS, min_size=1, max_size=3))
    def test_find_all_matches_reference_semantics(self, xml, segments):
        root = parse_xml(f"<root>{xml}</root>").root
        path = "/".join(segments).replace("///", "//")
        expected = [root]
        for seg in segments:
            expected = _ref_eval(expected, seg)
        got = find_all(root, path)
        assert len(got) == len(expected)
        assert all(g is e for g, e in zip(got, expected))

    @settings(max_examples=200, deadline=None)
    @given(
        path=st.text(
            alphabet="ab/*[]@='x01 ",
            min_size=1,
            max_size=12,
        )
    )
    def test_arbitrary_path_returns_list_or_query_error(self, path):
        root = parse_xml("<root><a x='1'><b/></a><a/></root>").root
        try:
            result = find_all(root, path)
        except QueryError:
            return
        assert isinstance(result, list)
        everything = list(root.iter(None))
        assert all(any(r is e for e in everything) for r in result)
