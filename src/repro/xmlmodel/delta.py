"""The paper's ``delta_T`` (Section 3.1) and ``Delta_T`` (Section 4) operators.

``delta_T`` converts an XML string into the terminal string consumed by the
grammars ``G_{T,r}``/``G'_{T,r}``: markup structure is preserved while every
maximal run of character data collapses to a single ``sigma`` terminal.

``Delta_T`` restricts a node to its children — descendants below the
children are discarded — producing the token sequence consumed by the
Element Content Potential Validity (ECPV) recognizers: a sequence over
element names and ``sigma``.

Symbol conventions
------------------
* ``sigma`` is represented by :data:`SIGMA`, which equals the
  :data:`repro.dtd.model.PCDATA` sentinel (``"#PCDATA"``).  Using one
  sentinel for "character data here" lets reachability lookups
  (``can x embed character data?``) consume ``Delta`` tokens directly.
  ``#`` is not an XML name character, so no element name can collide.
* start/end tag terminals are the strings ``"<x>"`` and ``"</x>"`` — exactly
  the paper's ``Sigma`` alphabet.
"""

from __future__ import annotations

from repro.dtd.model import PCDATA
from repro.xmlmodel.fastlex import EV_END, EV_START
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlNode, XmlText, walk

__all__ = [
    "SIGMA",
    "start_tag",
    "end_tag",
    "delta_symbols",
    "delta_tokens",
    "content_symbols",
]

#: The ``sigma`` terminal: one maximal run of character data.
SIGMA: str = PCDATA


def start_tag(name: str) -> str:
    """The start-tag terminal ``<name>`` of the paper's alphabet ``Sigma``."""
    return f"<{name}>"


def end_tag(name: str) -> str:
    """The end-tag terminal ``</name>``."""
    return f"</{name}>"


def _significant(text: str, ignore_whitespace: bool) -> bool:
    if not text:
        return False
    if ignore_whitespace and not text.strip():
        return False
    return True


def delta_symbols(
    node: XmlNode | XmlDocument, ignore_whitespace: bool = False
) -> list[str]:
    """Apply ``delta_T``: the full token string of *node*'s subtree.

    Consecutive character-data children collapse to a single :data:`SIGMA`;
    empty text nodes vanish (the paper maps empty content to the empty
    string).

    >>> from repro.xmlmodel.parser import parse_xml
    >>> doc = parse_xml("<a><b>A quick brown</b><c> fox</c> dog</a>")
    >>> delta_symbols(doc)
    ['<a>', '<b>', '#PCDATA', '</b>', '<c>', '#PCDATA', '</c>', '#PCDATA', '</a>']
    """
    if isinstance(node, XmlDocument):
        node = node.root
    output: list[str] = []
    for kind, item in walk(node):
        if kind == EV_START:
            output.append(start_tag(item.name))
        elif kind == EV_END:
            output.append(end_tag(item.name))
        elif _significant(item.text, ignore_whitespace) and (
            not output or output[-1] != SIGMA
        ):
            output.append(SIGMA)
    return output


def delta_tokens(
    node: XmlNode | XmlDocument, ignore_whitespace: bool = False
) -> tuple[str, ...]:
    """Like :func:`delta_symbols` but returns an immutable tuple."""
    return tuple(delta_symbols(node, ignore_whitespace=ignore_whitespace))


def content_symbols(
    element: XmlElement,
    start: int = 0,
    end: int | None = None,
    ignore_whitespace: bool = False,
) -> list[str]:
    """Apply ``Delta_T`` to children ``[start:end)`` of *element*.

    Returns the child-symbol sequence consumed by the ECPV recognizers:
    each element child contributes its name, each maximal run of
    character-data children contributes one :data:`SIGMA`.  The default
    range is every child: ``Delta_T`` of *element* with the enclosing
    root tags stripped.

    >>> from repro.xmlmodel.parser import parse_xml
    >>> doc = parse_xml(
    ...     "<a><b>A quick brown</b><e></e><c> fox jumps</c> dog</a>")
    >>> content_symbols(doc.root)
    ['b', 'e', 'c', '#PCDATA']
    >>> content_symbols(doc.root, 1, 3)
    ['e', 'c']
    """
    symbols: list[str] = []
    for child in element.children[start:end]:
        if isinstance(child, XmlText):
            if _significant(child.text, ignore_whitespace):
                if not symbols or symbols[-1] != SIGMA:
                    symbols.append(SIGMA)
        else:
            symbols.append(child.name)
    return symbols
