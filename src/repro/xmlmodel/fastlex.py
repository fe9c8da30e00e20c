"""The document scanner: XML text to ``(kind, payload, offset)`` events.

:func:`scan_events` is the one scanner every text path reads.  It yields
bare tuples (no token objects, no attribute dicts, no line/column
bookkeeping): the checking walks of :mod:`repro.core.stream` consume them
directly, and :func:`repro.xmlmodel.parser.parse_xml` builds its tree
from them, re-reading a start tag's attributes at the event's offset
(:func:`tag_attributes`).  Positions are recomputed from an offset only
when an error must be raised.

Compiled regular expressions scan whole tags and text runs.  Any tag
construct the fast patterns do not recognise is handed to the reference
character lexer (:mod:`repro.xmlmodel.lexer`) at the same position, so the
hard cases (entities in attribute values, zero-whitespace attribute runs,
every malformed-tag diagnostic) are *by construction* the reference's
behavior, not a reimplementation.  That lexer's whole token stream is the
oracle: ``tests/test_parse_fusion.py`` pins the events and every error,
message and position included, against it.
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

#: Event kinds yielded by :func:`scan_events`.
EV_START = 0
EV_END = 1
EV_TEXT = 2


def _loc(source: str, offset: int) -> tuple[int, int]:
    """(line, column) of *offset*, computed from scratch (error paths only)."""
    line = source.count("\n", 0, offset) + 1
    newline = source.rfind("\n", 0, offset)
    return line, offset - newline


def _reference_tag(source: str, offset: int) -> tuple[XmlToken, int]:
    """The reference lexer's token for the tag at *offset*, and its end."""
    cursor = _ref._Cursor(source)
    cursor.position = offset
    cursor.line, cursor.column = _loc(source, offset)
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
    """Yield ``(kind, payload, offset)`` events without building tokens.

    ``EV_START``/``EV_END`` carry the tag name (an empty tag yields both
    at the same offset); ``EV_TEXT`` carries the decoded character data of
    a maximal run.  Offsets point at the first source character of the
    construct so error positions can be recovered lazily via :func:`_loc`.
    Syntax diagnostics are identical to the reference lexer's.
    """
    pos = 0
    length = len(source)
    text_pieces: list[str] = []
    text_offset = 0

    while pos < length:
        char = source[pos]
        if char == "<":
            if source.startswith("<!--", pos):
                if text_pieces:
                    yield EV_TEXT, "".join(text_pieces), text_offset
                    text_pieces = []
                end = source.find("-->", pos)
                if end < 0:
                    raise XmlSyntaxError("unterminated comment", *_loc(source, pos))
                pos = end + 3
                continue
            if source.startswith("<![CDATA[", pos):
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
            if source.startswith("<?", pos):
                if text_pieces:
                    yield EV_TEXT, "".join(text_pieces), text_offset
                    text_pieces = []
                end = source.find("?>", pos)
                if end < 0:
                    raise XmlSyntaxError(
                        "unterminated processing instruction", *_loc(source, pos)
                    )
                pos = end + 2
                continue
            if source.startswith("<!DOCTYPE", pos):
                if text_pieces:
                    yield EV_TEXT, "".join(text_pieces), text_offset
                    text_pieces = []
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
            if text_pieces:
                yield EV_TEXT, "".join(text_pieces), text_offset
                text_pieces = []
            start = pos
            match = _START_TAG.match(source, pos)
            if match is not None:
                yield EV_START, match.group(1), start
                if match.group(3):
                    yield EV_END, match.group(1), start
                pos = match.end()
                continue
            match = _END_TAG.match(source, pos)
            if match is not None:
                yield EV_END, match.group(1), start
                pos = match.end()
                continue
            token, pos = _reference_tag(source, pos)
            if token.kind is XmlTokenKind.END_TAG:
                yield EV_END, token.name, start
            else:
                yield EV_START, token.name, start
                if token.kind is XmlTokenKind.EMPTY_TAG:
                    yield EV_END, token.name, start
            continue
        if char == "&":
            if not text_pieces:
                text_offset = pos
            end = source.find(";", pos + 1)
            if end < 0 or end - (pos + 1) > 10:
                raise XmlSyntaxError(
                    "unterminated entity reference", *_loc(source, pos)
                )
            body = source[pos + 1 : end]
            if body.startswith("#x") or body.startswith("#X"):
                text_pieces.append(chr(int(body[2:], 16)))
            elif body.startswith("#"):
                text_pieces.append(chr(int(body[1:])))
            elif body in _ref._ENTITIES:
                text_pieces.append(_ref._ENTITIES[body])
            else:
                raise XmlSyntaxError(f"unknown entity &{body};", *_loc(source, pos))
            pos = end + 1
            continue
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
    if text_pieces:
        yield EV_TEXT, "".join(text_pieces), text_offset
