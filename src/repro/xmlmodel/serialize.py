"""Serialize the DOM back to XML text.

The output is canonical enough for round-tripping in tests: attributes in
insertion order, ``<a></a>`` (not ``<a/>``) for empty elements by default —
matching the paper's examples, which write ``<e></e>`` — and the five
predefined entities escaped in text and attribute values.
"""

from __future__ import annotations

from repro.xmlmodel.fastlex import EV_START, EV_TEXT
from repro.xmlmodel.tree import XmlDocument, XmlNode, walk

__all__ = ["to_xml", "escape_text"]

_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;"})


def escape_text(text: str) -> str:
    """Escape character data for inclusion in XML text content."""
    return text.translate(_TEXT_ESCAPES)


def _escape_attribute(value: str) -> str:
    return value.translate(_ATTR_ESCAPES)


def to_xml(node: XmlNode | XmlDocument, self_closing: bool = False) -> str:
    """Render *node* (or a whole document) as XML text.

    Renders off :func:`~repro.xmlmodel.tree.walk`, so document depth is
    bounded by memory, not by the interpreter stack.

    Parameters
    ----------
    node:
        The document, element or text node to render.
    self_closing:
        When ``True``, childless elements render as ``<a/>`` instead of
        ``<a></a>``.
    """
    if isinstance(node, XmlDocument):
        node = node.root
    parts: list[str] = []
    for kind, item in walk(node):
        if kind == EV_TEXT:
            parts.append(escape_text(item.text))
        elif kind == EV_START:
            parts.append(f"<{item.name}")
            for name, value in item.attributes.items():
                parts.append(f' {name}="{_escape_attribute(value)}"')
            parts.append("/>" if self_closing and not item.children else ">")
        elif item.children or not self_closing:
            parts.append(f"</{item.name}>")
    return "".join(parts)
