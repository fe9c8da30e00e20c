"""Serialize the DOM back to XML text.

The output is canonical enough for round-tripping in tests: attributes in
insertion order, ``<a></a>`` (not ``<a/>``) for empty elements by default —
matching the paper's examples, which write ``<e></e>`` — and the five
predefined entities escaped in text and attribute values.
"""

from __future__ import annotations

from repro.xmlmodel.tree import XmlDocument, XmlNode, XmlText

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

    The walk keeps an explicit stack, so document depth is bounded by
    memory, not by the interpreter stack.

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
    # A node still to render, or the end tag of an element whose
    # children sit above it on the stack.
    pending: list[XmlNode | str] = [node]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, XmlText):
            parts.append(escape_text(item.text))
        else:
            parts.append(f"<{item.name}")
            for name, value in item.attributes.items():
                parts.append(f' {name}="{_escape_attribute(value)}"')
            if not item.children:
                parts.append("/>" if self_closing else f"></{item.name}>")
            else:
                parts.append(">")
                pending.append(f"</{item.name}>")
                pending.extend(reversed(item.children))
    return "".join(parts)
