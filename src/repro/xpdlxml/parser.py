"""Recursive-descent XML parser producing the span-carrying DOM.

Supports the XML subset that platform descriptors use: the XML declaration,
elements with attributes, character data with the five predefined entities
and numeric character references, CDATA sections, comments and processing
instructions.  DOCTYPE declarations are recognized and skipped (descriptor
files never need internal subsets).  Errors carry precise source spans; by
default the parser is *recovering* — it collects diagnostics and keeps going
where it safely can — while ``strict=True`` raises on the first error.
"""

from __future__ import annotations

import re

from ..diagnostics import (
    DiagnosticSink,
    ParseError,
    SourceSpan,
    SourceText,
)
from ..obs import get_observer
from .dom import (
    XmlAttribute,
    XmlCData,
    XmlComment,
    XmlDocument,
    XmlElement,
    XmlNode,
    XmlPI,
    XmlText,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: Deepest element nesting the parser accepts, the root being level 1.
#: The parser recurses two frames per level, so 256 levels use about
#: half of Python's default recursion limit and leave the rest to its
#: callers (the composer loads type descriptors from inside its own
#: recursion).  Descriptors in the bundled and generated corpora nest at
#: most 7 levels.
MAX_NESTING = 256

#: The end of a tag, ``>`` outside quoted attribute values.
_TAG_END = re.compile(r"""(?:[^>"']|"[^"]*"|'[^']*')*>""")

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


def _is_name(text: str) -> bool:
    return bool(text) and text[0] in _NAME_START and all(c in _NAME_CHARS for c in text)


def _char_class(chars: str | set[str]) -> str:
    return "[" + "".join(re.escape(c) for c in sorted(chars)) + "]"


# The start-tag reader below mirrors the parser's lexical sets: the
# whitespace ``_skip_ws`` skips and the ``_read_name`` name characters.
_S = _char_class(" \t\r\n")
_NAME_RE = _char_class(_NAME_START) + _char_class(_NAME_CHARS) + "*"
#: One attribute as the parser reads it, restricted to quoted values free
#: of '<' (an error) and '&' (a reference to decode).
_ATTRIBUTE_RE = rf"""{_S}*({_NAME_RE}){_S}*={_S}*(?:"([^"<&]*)"|'([^'<&]*)')"""
_ATTRIBUTE = re.compile(_ATTRIBUTE_RE)
#: The prolog and the root start tag, matched only where the parser reads
#: the same root.  Comments and PIs end at their first terminator, as the
#: parser's ``find`` does, and the patterns cannot backtrack past it.
_ROOT_START = re.compile(
    # Leading whitespace, all of it, then the XML declaration, which the
    # parser looks for only here: well-formed with quoted values, or absent.
    rf"{_S}*(?!{_S})"
    rf"""(?:<\?xml(?:{_S}*{_NAME_RE}{_S}*={_S}*(?:"[^"]*"|'[^']*'))*{_S}*\?>|(?!<\?xml))"""
    # Comments and processing instructions.
    rf"(?:{_S}*(?:<!--(?:[^-]|-(?!->))*-->|<\?(?:[^?]|\?(?!>))*\?>))*"
    # The root start tag.
    rf"{_S}*<({_NAME_RE})((?:{_ATTRIBUTE_RE})*){_S}*/?>"
)


def root_start_tag(text: str) -> tuple[str, dict[str, str]] | None:
    """The root element's tag and attributes, read from its start tag.

    Returns what :func:`parse_xml` would give as ``doc.root.tag`` and its
    attribute values, without parsing the rest of the document, or
    ``None`` when the start tag alone cannot vouch for that: a DOCTYPE,
    text or a byte-order mark before the root, a malformed declaration,
    an unquoted or valueless attribute, ``&`` or ``<`` in a value, or no
    root at all.  Callers fall back to the full parse on ``None``.
    """
    m = _ROOT_START.match(text)
    if m is None:
        return None
    attrs: dict[str, str] = {}
    for a in _ATTRIBUTE.finditer(m.group(2)):
        value = a.group(2) if a.group(2) is not None else a.group(3)
        attrs.setdefault(a.group(1), value)  # the parser keeps the first
    return m.group(1), attrs


class XmlParser:
    """One-shot parser over a :class:`SourceText`."""

    def __init__(
        self,
        source: SourceText,
        sink: DiagnosticSink | None = None,
        *,
        strict: bool = False,
    ) -> None:
        self.src = source
        self.text = source.text
        self.n = len(self.text)
        self.pos = 0
        self.sink = sink if sink is not None else DiagnosticSink()
        self.sink.add_source(source)
        self.strict = strict
        self.elements_parsed = 0
        self.depth = 0  # elements open around the one being parsed

    # -- error helpers -------------------------------------------------------
    def _span(self, start: int, end: int | None = None) -> SourceSpan:
        return self.src.span(start, self.pos if end is None else end)

    def _error(self, code: str, message: str, start: int, *hints: str) -> None:
        span = self._span(start, max(start + 1, self.pos))
        self.sink.error(code, message, span, *hints)
        if self.strict:
            raise ParseError(message, self.sink.diagnostics)

    # -- character helpers -----------------------------------------------------
    def _peek(self, k: int = 0) -> str:
        i = self.pos + k
        return self.text[i] if i < self.n else ""

    def _startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def _skip_ws(self) -> None:
        while self.pos < self.n and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _read_name(self) -> str | None:
        start = self.pos
        if self.pos < self.n and self.text[self.pos] in _NAME_START:
            self.pos += 1
            while self.pos < self.n and self.text[self.pos] in _NAME_CHARS:
                self.pos += 1
            return self.text[start : self.pos]
        return None

    def _expect(self, s: str, what: str) -> bool:
        if self._startswith(s):
            self.pos += len(s)
            return True
        self._error("XML0001", f"expected {what} ({s!r})", self.pos)
        return False

    # -- entities ---------------------------------------------------------------
    def _decode_entities(self, raw: str, at_offset: int) -> str:
        """Decode entity and character references in ``raw``."""
        if "&" not in raw:
            return raw
        out: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            end = raw.find(";", i + 1)
            if end == -1:
                self._error(
                    "XML0010",
                    "unterminated entity reference",
                    at_offset + i,
                    "write '&amp;' for a literal ampersand",
                )
                out.append("&")
                i += 1
                continue
            body = raw[i + 1 : end]
            if body.startswith("#"):
                digits, base = (body[2:], 16) if body[1:2] in ("x", "X") else (body[1:], 10)
                try:
                    code = int(digits, base)
                except ValueError:
                    code = -1
                # Unicode scalar values only: no surrogate, nothing past U+10FFFF.
                if 0 <= code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                    out.append(chr(code))
                else:
                    self._error("XML0011", f"bad character reference &{body};", at_offset + i)
            elif body in _PREDEFINED_ENTITIES:
                out.append(_PREDEFINED_ENTITIES[body])
            else:
                self._error("XML0012", f"unknown entity &{body};", at_offset + i)
                out.append(f"&{body};")
            i = end + 1
        return "".join(out)

    # -- top level ---------------------------------------------------------------
    def parse_document(self) -> XmlDocument:
        prolog: list[XmlNode] = []
        xml_decl: dict[str, str] = {}
        self._skip_ws()
        if self._startswith("<?xml"):
            xml_decl = self._parse_xml_decl()
        root: XmlElement | None = None
        epilog: list[XmlNode] = []
        while self.pos < self.n:
            self._skip_ws()
            if self.pos >= self.n:
                break
            start = self.pos
            if self._startswith("<!--"):
                node = self._parse_comment()
            elif self._startswith("<!DOCTYPE"):
                self._skip_doctype()
                continue
            elif self._startswith("<?"):
                node = self._parse_pi()
            elif self._peek() == "<":
                if root is not None:
                    self._error(
                        "XML0020",
                        "multiple root elements; an XPDL descriptor has one root",
                        start,
                    )
                elem = self._parse_element()
                if root is None:  # the first root stays (root_start_tag reads it)
                    root = elem
                continue
            else:
                self._error("XML0021", "content outside of the root element", start)
                # Recover by skipping to the next '<'.
                nxt = self.text.find("<", self.pos)
                self.pos = self.n if nxt == -1 else nxt
                continue
            (prolog if root is None else epilog).append(node)
        if root is None:
            self._error("XML0022", "document has no root element", 0)
            if self.strict:  # pragma: no cover - strict raises in _error
                raise ParseError("no root element")
            root = XmlElement(SourceSpan.unknown(self.src.name), tag="<missing>")
        return XmlDocument(
            source_name=self.src.name,
            root=root,
            prolog=prolog,
            epilog=epilog,
            xml_decl=xml_decl,
        )

    def _parse_xml_decl(self) -> dict[str, str]:
        start = self.pos
        self.pos += len("<?xml")
        decl: dict[str, str] = {}
        while True:
            self._skip_ws()
            if self._startswith("?>"):
                self.pos += 2
                return decl
            if self.pos >= self.n:
                self._error("XML0002", "unterminated XML declaration", start)
                return decl
            name = self._read_name()
            if name is None:
                self._error("XML0002", "malformed XML declaration", self.pos)
                self.pos += 1
                continue
            self._skip_ws()
            self._expect("=", "'=' in XML declaration")
            self._skip_ws()
            decl[name] = self._parse_quoted_value()

    def _skip_doctype(self) -> None:
        start = self.pos
        depth = 0
        while self.pos < self.n:
            ch = self.text[self.pos]
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
                self.pos += 1
                if depth == 0:
                    return
                continue
            self.pos += 1
        self._error("XML0003", "unterminated DOCTYPE", start)

    # -- markup pieces --------------------------------------------------------------
    def _parse_comment(self) -> XmlComment:
        start = self.pos
        self.pos += 4  # '<!--'
        end = self.text.find("-->", self.pos)
        if end == -1:
            self._error("XML0004", "unterminated comment", start)
            body = self.text[self.pos :]
            self.pos = self.n
        else:
            body = self.text[self.pos : end]
            self.pos = end + 3
        return XmlComment(self._span(start), body)

    def _parse_pi(self) -> XmlPI:
        start = self.pos
        self.pos += 2  # '<?'
        target = self._read_name() or ""
        if not target:
            self._error("XML0005", "processing instruction without target", start)
        end = self.text.find("?>", self.pos)
        if end == -1:
            self._error("XML0005", "unterminated processing instruction", start)
            data = self.text[self.pos :]
            self.pos = self.n
        else:
            data = self.text[self.pos : end].strip()
            self.pos = end + 2
        return XmlPI(self._span(start), target, data)

    def _parse_cdata(self) -> XmlCData:
        start = self.pos
        self.pos += len("<![CDATA[")
        end = self.text.find("]]>", self.pos)
        if end == -1:
            self._error("XML0006", "unterminated CDATA section", start)
            body = self.text[self.pos :]
            self.pos = self.n
        else:
            body = self.text[self.pos : end]
            self.pos = end + 3
        return XmlCData(self._span(start), body)

    def _parse_quoted_value(self) -> str:
        quote = self._peek()
        if quote not in "\"'":
            # The paper's own Listing 1 writes quantity=2 (unquoted); accept a
            # bare token with a warning rather than failing the corpus.
            start = self.pos
            while self.pos < self.n and self.text[self.pos] not in " \t\r\n>/=":
                self.pos += 1
            raw = self.text[start : self.pos]
            self.sink.warning(
                "XML0013",
                f"unquoted attribute value {raw!r}",
                self._span(start),
                "quote attribute values per XML well-formedness",
            )
            return self._decode_entities(raw, start)
        self.pos += 1
        start = self.pos
        end = self.text.find(quote, self.pos)
        if end == -1:
            self._error("XML0014", "unterminated attribute value", start - 1)
            raw = self.text[self.pos :]
            self.pos = self.n
            return self._decode_entities(raw, start)
        raw = self.text[start:end]
        self.pos = end + 1
        if "<" in raw:
            self._error("XML0015", "'<' is not allowed inside attribute values", start)
        return self._decode_entities(raw, start)

    def _parse_attributes(self, elem: XmlElement) -> None:
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch in (">", "/", "?", "") or self._startswith("/>"):
                return
            name_start = self.pos
            name = self._read_name()
            if name is None:
                self._error("XML0016", f"unexpected character {ch!r} in tag", self.pos)
                self.pos += 1
                continue
            name_span = self._span(name_start)
            self._skip_ws()
            if self._peek() == "=":
                self.pos += 1
                self._skip_ws()
                value_start = self.pos
                value = self._parse_quoted_value()
                value_span = self._span(value_start)
            else:
                # Attribute without '=value' — the paper's Listing 8 writes
                # <compute_capability="3.0"/> style typos; treat a lone name
                # as boolean-true with a warning.
                self.sink.warning(
                    "XML0017",
                    f"attribute {name!r} has no value; assuming \"true\"",
                    name_span,
                )
                value = "true"
                value_span = name_span
            if name in elem.attributes:
                self._error("XML0018", f"duplicate attribute {name!r}", name_start)
                continue
            elem.attributes[name] = XmlAttribute(name, value, name_span, value_span)
            elem.attribute_order.append(name)

    def _parse_element(self) -> XmlElement | None:
        start = self.pos
        if self.depth == MAX_NESTING:
            self._error(
                "XML0033",
                f"element nested deeper than {MAX_NESTING} levels; its content is skipped",
                start,
            )
            self._skip_element()
            return None
        self.pos += 1  # '<'
        tag = self._read_name()
        if tag is None:
            # Handle the paper's '<compute_capability="3.0"/>' pattern:
            # no legal name means garbage; skip to tag end.
            self._error("XML0030", "malformed start tag", start)
            nxt = self.text.find(">", self.pos)
            self.pos = self.n if nxt == -1 else nxt + 1
            return None
        elem = XmlElement(self._span(start), tag=tag)
        self.elements_parsed += 1
        self._parse_attributes(elem)
        self._skip_ws()
        if self._startswith("/>"):
            self.pos += 2
            elem.span = self._span(start)
            return elem
        if not self._expect(">", "'>' closing start tag"):
            return elem
        self.depth += 1
        self._parse_content(elem)
        self.depth -= 1
        elem.span = self._span(start)
        return elem

    def _skip_element(self) -> None:
        """Move past the element starting at ``pos`` and all it contains.

        Counts start and end tags without recursing, so any depth skips.
        """
        open_tags = 0
        while True:
            lt = self.text.find("<", self.pos)
            if lt == -1:
                self.pos = self.n
                return
            self.pos = lt
            for opener, closer in (("<!--", "-->"), ("<![CDATA[", "]]>"), ("<?", "?>")):
                if self._startswith(opener):
                    end = self.text.find(closer, lt + len(opener))
                    self.pos = self.n if end == -1 else end + len(closer)
                    break
            else:
                tag = _TAG_END.match(self.text, lt)
                if tag is None:
                    self.pos = self.n
                    return
                self.pos = tag.end()
                if self.text.startswith("</", lt):
                    open_tags -= 1
                elif self.text[self.pos - 2] != "/":
                    open_tags += 1
                if open_tags <= 0:
                    return

    def _parse_content(self, parent: XmlElement) -> None:
        text_start = self.pos
        buf: list[str] = []

        def flush_text(upto: int) -> None:
            nonlocal text_start
            if buf:
                raw = "".join(buf)
                buf.clear()
                node = XmlText(
                    self.src.span(text_start, upto),
                    self._decode_entities(raw, text_start),
                )
                parent.append(node)

        while self.pos < self.n:
            ch = self.text[self.pos]
            if ch == "<":
                flush_text(self.pos)
                if self._startswith("</"):
                    close_start = self.pos
                    self.pos += 2
                    name = self._read_name()
                    self._skip_ws()
                    self._expect(">", "'>' closing end tag")
                    if name != parent.tag:
                        self._error(
                            "XML0031",
                            f"mismatched end tag </{name}>; expected </{parent.tag}>",
                            close_start,
                        )
                        # Recovery: treat as closing the current element
                        # anyway; the paper's Listing 6 has a stray </core>.
                    return
                if self._startswith("<!--"):
                    parent.append(self._parse_comment())
                elif self._startswith("<![CDATA["):
                    parent.append(self._parse_cdata())
                elif self._startswith("<?"):
                    parent.append(self._parse_pi())
                else:
                    child = self._parse_element()
                    if child is not None:
                        parent.append(child)
                text_start = self.pos
            else:
                buf.append(ch)
                self.pos += 1
        flush_text(self.pos)
        self._error("XML0032", f"unexpected end of file inside <{parent.tag}>", self.pos - 1)


def parse_xml(
    text: str,
    *,
    source_name: str = "<string>",
    sink: DiagnosticSink | None = None,
    strict: bool = False,
) -> XmlDocument:
    """Parse XML text into a :class:`XmlDocument`.

    With ``strict=True`` the first error raises :class:`ParseError`;
    otherwise errors are collected into ``sink`` (a fresh sink is created if
    none is given) and a best-effort tree is returned.
    """
    src = SourceText(source_name, text)
    parser = XmlParser(src, sink, strict=strict)
    doc = parser.parse_document()
    obs = get_observer()
    if obs.enabled:
        obs.count("parse.documents")
        obs.count("parse.elements", parser.elements_parsed)
        obs.count("parse.bytes", len(text))
    if strict:
        parser.sink.raise_if_errors(ParseError)
    return doc


def parse_xml_file(
    path: str,
    *,
    sink: DiagnosticSink | None = None,
    strict: bool = False,
) -> XmlDocument:
    """Parse an XML file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_xml(text, source_name=path, sink=sink, strict=strict)
