"""The document scanner: XML text to ``(kind, payload, offset)`` events.

:func:`scan_events` is the one scanner every text path reads, and the one
place that decides what a document is.  It yields bare tuples (no token
objects, no attribute dicts, no line/column bookkeeping), only those of a
well-formed document, and raises :class:`XmlSyntaxError` on anything
else.  The checking walks of :mod:`repro.core.stream` consume the events
with no checks of their own, and :func:`repro.xmlmodel.parser.parse_xml`
builds its tree from them, re-reading a start tag's attributes at the
event's offset (:func:`tag_attributes`).  Positions are recomputed from
an offset only when an error must be raised.

Compiled regular expressions scan whole tags and text runs.  Any tag or
reference the fast path does not accept is handed to the reference
character lexer (:mod:`repro.xmlmodel.lexer`) at the same position, so the
hard cases (entities in attribute values, zero-whitespace attribute runs,
every malformed-tag or bad-reference diagnostic) are *by construction* the
reference's behavior, not a reimplementation.  The oracle is that lexer's
token stream under the reference parser's document rules:
``tests/test_parse_fusion.py`` pins the events and every error, message
and position included, against it.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XmlSyntaxError
from repro.xmlmodel import lexer as _ref
from repro.xmlmodel.lexer import XmlToken, XmlTokenKind

__all__ = [
    "EV_START",
    "EV_END",
    "EV_TEXT",
    "scan_events",
    "tag_attributes",
]

_NAME = r"[A-Za-z_:][A-Za-z0-9._:\-]*"
_S = r"[ \t\r\n]"
#: One quoted attribute value free of ``&`` and ``<`` — nothing to decode,
#: nothing to reject, so the raw slice *is* the value.
_VALUE = r"(?:\"[^\"<&]*\"|'[^'<&]*')"
#: A complete start/empty tag whose attributes are all easy values and
#: whitespace-separated.  Anything else falls back to the reference scanner.
_START_TAG = re.compile(rf"<({_NAME})((?:{_S}+{_NAME}{_S}*={_S}*{_VALUE})*){_S}*(/?)>")
_END_TAG = re.compile(rf"</({_NAME}){_S}*>")
_ATTR = re.compile(rf"({_NAME}){_S}*={_S}*({_VALUE})")

#: How comments, CDATA sections, PIs and DOCTYPEs start; no tag does, so
#: a tag costs one prefix test.
_NON_TAG = ("<!", "<?")

#: Event kinds yielded by :func:`scan_events`.
EV_START = 0
EV_END = 1
EV_TEXT = 2


def _loc(source: str, offset: int) -> tuple[int, int]:
    """(line, column) of *offset*, computed from scratch (error paths only)."""
    line = source.count("\n", 0, offset) + 1
    newline = source.rfind("\n", 0, offset)
    return line, offset - newline


def _cursor_at(source: str, offset: int) -> _ref._Cursor:
    """A reference lexer cursor placed at *offset*."""
    cursor = _ref._Cursor(source)
    cursor.position = offset
    cursor.line, cursor.column = _loc(source, offset)
    return cursor


def _reference_tag(source: str, offset: int) -> tuple[XmlToken, int]:
    """The reference lexer's token for the tag at *offset*, and its end."""
    cursor = _cursor_at(source, offset)
    token = _ref._scan_tag(cursor)  # raises the reference diagnostics
    return token, cursor.position


def tag_attributes(source: str, offset: int) -> tuple[tuple[str, str], ...]:
    """The attributes of the start tag :func:`scan_events` reported at *offset*.

    Read as the scan read the tag: with the fast pattern when it
    matches, else with the reference lexer.
    """
    match = _START_TAG.match(source, offset)
    if match is None:
        return _reference_tag(source, offset)[0].attributes
    blob = match.group(2)
    if not blob:
        return ()
    return tuple(
        (item.group(1), item.group(2)[1:-1]) for item in _ATTR.finditer(blob)
    )


def scan_events(source: str) -> Iterator[tuple[int, str, int]]:
    """Yield the ``(kind, payload, offset)`` events of the document *source*.

    ``EV_START``/``EV_END`` carry the tag name (an empty tag yields both
    at the same offset); ``EV_TEXT`` carries the decoded character data of
    a maximal run inside the root element.  Offsets point at the first
    source character of the construct.  The events are a well-formed
    document's, or the scan raises: the reference lexer's diagnostics, or
    a document error (a second root, text outside the root, an unmatched,
    mismatched or unclosed element, no root) where its event would be.
    """
    pos = 0
    length = len(source)
    text_pieces: list[str] = []
    text_offset = 0
    open_names: list[str] = []
    root_seen = False

    while True:
        if pos < length:
            char = source[pos]
            if char == "&":
                if not text_pieces:
                    text_offset = pos
                # A body of at most 10 characters, as the lexer reads one.
                end = source.find(";", pos + 1, pos + 12)
                text = _ref._reference_text(source[pos + 1 : end]) if end > 0 else None
                if text is None:  # the reference lexer raises its diagnostic
                    _ref._decode_reference(_cursor_at(source, pos))
                text_pieces.append(text)
                pos = end + 1
                continue
            if char != "<":
                if not text_pieces:
                    text_offset = pos
                lt = source.find("<", pos)
                amp = source.find("&", pos)
                stop = length
                if lt >= 0:
                    stop = lt
                if 0 <= amp < stop:
                    stop = amp
                text_pieces.append(source[pos:stop])
                pos = stop
                continue
            non_tag = source.startswith(_NON_TAG, pos)
            if non_tag and source.startswith("<![CDATA[", pos):
                # CDATA extends the text run.
                if not text_pieces:
                    text_offset = pos
                end = source.find("]]>", pos + 9)
                if end < 0:
                    raise XmlSyntaxError(
                        "unterminated CDATA section", *_loc(source, pos)
                    )
                text_pieces.append(source[pos + 9 : end])
                pos = end + 3
                continue
        # Any other markup, or the end of the source, ends the text run.
        if text_pieces:
            text = "".join(text_pieces)
            text_pieces = []
            if open_names:
                yield EV_TEXT, text, text_offset
            elif text.strip():
                raise XmlSyntaxError(
                    "character data outside the root element",
                    *_loc(source, text_offset),
                )
        if pos >= length:
            break
        if non_tag:
            if source.startswith("<!--", pos):
                end = source.find("-->", pos)
                if end < 0:
                    raise XmlSyntaxError("unterminated comment", *_loc(source, pos))
                pos = end + 3
                continue
            if source.startswith("<?", pos):
                end = source.find("?>", pos)
                if end < 0:
                    raise XmlSyntaxError(
                        "unterminated processing instruction", *_loc(source, pos)
                    )
                pos = end + 2
                continue
            if source.startswith("<!DOCTYPE", pos):
                depth = 0
                scan = pos
                while scan < length:
                    item = source[scan]
                    scan += 1
                    if item == "[":
                        depth += 1
                    elif item == "]":
                        depth -= 1
                    elif item == ">" and depth <= 0:
                        break
                else:
                    raise XmlSyntaxError(
                        "unterminated DOCTYPE", *_loc(source, length)
                    )
                pos = scan
                continue
        start = pos
        match = _START_TAG.match(source, pos)
        if match is not None:
            name = match.group(1)
            end_tag = False
            empty = match.group(3)
            pos = match.end()
        else:
            match = _END_TAG.match(source, pos)
            if match is not None:
                name = match.group(1)
                end_tag = True
                pos = match.end()
            else:
                token, pos = _reference_tag(source, pos)
                name = token.name
                end_tag = token.kind is XmlTokenKind.END_TAG
                empty = token.kind is XmlTokenKind.EMPTY_TAG
        if end_tag:
            if not open_names:
                raise XmlSyntaxError(
                    f"unmatched end tag </{name}>", *_loc(source, start)
                )
            open_name = open_names.pop()
            if open_name != name:
                raise XmlSyntaxError(
                    f"end tag </{name}> does not match open <{open_name}>",
                    *_loc(source, start),
                )
            yield EV_END, name, start
            continue
        if not open_names:
            if root_seen:
                raise XmlSyntaxError(
                    f"multiple root elements: second root <{name}>",
                    *_loc(source, start),
                )
            root_seen = True
        yield EV_START, name, start
        if empty:
            yield EV_END, name, start
        else:
            open_names.append(name)
    if open_names:
        raise XmlSyntaxError(
            f"unclosed element <{open_names[-1]}>", *_loc(source, length)
        )
    if not root_seen:
        raise XmlSyntaxError("document has no root element")
