"""From-scratch XML substrate: parser, DOM with source spans, writer, paths.

Stands in for the Xerces parser the paper's prototype used.
"""

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
from .parser import XmlParser, parse_xml, parse_xml_file, root_start_tag
from .writer import XmlWriter, escape_attr, escape_text, write_element, write_xml
from .build import comment, document, element, synth_span, text
from .path import find_all, find_first

__all__ = [
    "XmlAttribute",
    "XmlCData",
    "XmlComment",
    "XmlDocument",
    "XmlElement",
    "XmlNode",
    "XmlPI",
    "XmlText",
    "XmlParser",
    "parse_xml",
    "parse_xml_file",
    "root_start_tag",
    "XmlWriter",
    "escape_attr",
    "escape_text",
    "write_element",
    "write_xml",
    "comment",
    "document",
    "element",
    "synth_span",
    "text",
    "find_all",
    "find_first",
]
