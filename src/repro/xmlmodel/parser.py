"""Well-formedness parser: XML text to :class:`~repro.xmlmodel.tree.XmlDocument`.

Checks exactly the well-formedness constraints the paper's "XML string"
notion requires: properly nested matching tags and a single root element.
Character data outside the root is rejected unless it is all whitespace.

Those checks are the scanner's
(:func:`~repro.xmlmodel.fastlex.scan_events`), which yields only the
events of a well-formed document or raises.  The tree is built from its
events with an explicit stack, so document depth is bounded by memory,
not by the interpreter stack.
"""

from __future__ import annotations

from repro.xmlmodel.fastlex import EV_START, EV_TEXT, scan_events, tag_attributes
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlText

__all__ = ["parse_xml", "parse_fragment"]


def parse_xml(source: str) -> XmlDocument:
    """Parse *source* into a document, enforcing well-formedness.

    >>> doc = parse_xml("<a><b>hi</b> there</a>")
    >>> doc.root.name
    'a'
    >>> doc.content()
    'hi there'
    """
    return XmlDocument(_parse(source))


def parse_fragment(source: str) -> XmlElement:
    """Parse a single-rooted fragment and return its root element.

    Identical to :func:`parse_xml` but returns the detached element, which
    is convenient when building larger trees in tests and workloads.
    """
    return _parse(source)


def _parse(source: str) -> XmlElement:
    stack: list[XmlElement] = []
    for kind, payload, offset in scan_events(source):
        if kind == EV_TEXT:
            stack[-1].append(XmlText(payload))
        elif kind == EV_START:
            element = XmlElement(
                payload, attributes=dict(tag_attributes(source, offset))
            )
            if stack:
                stack[-1].append(element)
            else:
                root = element
            stack.append(element)
        else:  # EV_END, which an empty tag yields right after its EV_START
            stack.pop()
    return root
