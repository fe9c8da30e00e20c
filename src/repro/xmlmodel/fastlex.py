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

Two readers sit behind it, and they yield the same events:

* **The fast path** is stdlib ``pyexpat``, taken when a check of the
  text shows that expat reads it as the reference does
  (:func:`_expat_reads_alike`): ASCII only, and no ``&``,
  ``<![CDATA[``, ``<!DOCTYPE`` or carriage return, so no entity, CDATA
  section, DOCTYPE or line-end normalization can make the two differ.
  Over that alphabet expat accepts a subset of what the reference
  accepts, and reads what it accepts the same way.  Its
  callbacks build the events: a tag at ``CurrentByteIndex`` (an empty
  tag's end at its start), a text run at its flush index minus its
  length, with comment and PI handlers flushing text so runs stay split
  where the reference splits them.  Expat is fed :data:`_CHUNK`
  characters at a time and each chunk's events are yielded before the
  next is parsed, so memory is bounded by a chunk, not by the document.
  On any :class:`~pyexpat.ExpatError` the reference loop runs from the
  start and skips the events already yielded: its events or its error
  are the answer, so every error is the reference's, byte for byte.
* **The reference loop** reads every other document.  Compiled regular
  expressions scan whole tags and text runs.  Any tag or reference they
  do not accept is handed to the reference character lexer
  (:mod:`repro.xmlmodel.lexer`) at the same position, so the hard cases
  (entities in attribute values, zero-whitespace attribute runs, every
  malformed-tag or bad-reference diagnostic) are *by construction* the
  reference's behavior, not a reimplementation.

The oracle is that lexer's token stream under the reference parser's
document rules: ``tests/test_parse_fusion.py`` pins the events and every
error, message and position included, against it, on both readers.
"""

from __future__ import annotations

import re
from itertools import islice
from pyexpat import ExpatError, ParserCreate
from typing import Callable, Iterator

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

#: One event: its kind, the tag name or the text, and its source offset.
Event = tuple[int, str, int]

#: Characters handed to expat per ``Parse`` call.  Each chunk's events
#: are yielded before the next chunk is parsed, so a document's events are
#: never all held at once.
_CHUNK = 1 << 14


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

    Read as the reference loop reads the tag: with its tag pattern when
    that matches, else with the reference lexer.
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


def scan_events(source: str) -> Iterator[Event]:
    """Yield the ``(kind, payload, offset)`` events of the document *source*.

    ``EV_START``/``EV_END`` carry the tag name (an empty tag yields both
    at the same offset); ``EV_TEXT`` carries the decoded character data of
    a maximal run inside the root element.  Offsets point at the first
    source character of the construct.  The events are a well-formed
    document's, or the scan raises: the reference lexer's diagnostics, or
    a document error (a second root, text outside the root, an unmatched,
    mismatched or unclosed element, no root) where its event would be.

    Expat reads *source* when :func:`_expat_reads_alike` holds, else the
    reference loop does; the events are the same either way.
    """
    if not _expat_reads_alike(source):
        return _reference_loop(source)
    if len(source) > _CHUNK:
        return _expat_chunks(source)
    # A text buffer as long as the document: no run comes in pieces.
    parse, events, _split = _expat_reader(source, len(source) or 1)
    try:
        parse(source, True)
    except ExpatError:
        return _reference_loop(source)
    return iter(events)


def _expat_reads_alike(source: str) -> bool:
    """Whether expat reads *source* as the reference loop does.

    It must be ASCII (one character per byte, so expat's byte offsets are
    character offsets, and no character the two name rules treat apart),
    with no ``&`` (expat expands references itself), ``<![CDATA[`` (it
    splits runs at a CDATA section), ``<!DOCTYPE`` (it reads the internal
    subset) and no carriage return (it normalizes line ends).  Nor may a
    comment open with ``<!-->`` or ``<!--->``: the reference ends those
    at that ``-->``, expat at the next.
    """
    return (
        source.isascii()
        and "&" not in source
        and "\r" not in source
        and "<![CDATA[" not in source
        and "<!DOCTYPE" not in source
        and "<!-->" not in source
        and "<!--->" not in source
    )


def _expat_reader(
    source: str, size: int
) -> tuple[Callable[[str, bool], None], list, list[int]]:
    """An expat parser whose callbacks append the events of *source*.

    Returns three things.  ``parse(data, final)`` feeds the parser
    *source*, whole or in chunks, in order, and lets it go after the
    final chunk or an error.  The list the callbacks append events to.
    And the indexes of text events whose payload is still a list of
    pieces: a run expat handed over in parts, split where a ``Parse``
    call ended or past a full text buffer of *size* characters
    (:func:`_join_runs` joins them).
    """
    parser = ParserCreate()
    parser.buffer_size = size
    parser.buffer_text = True
    events: list = []
    append = events.append
    split: list[int] = []
    text_end = -1

    def start(name: str, _attributes: dict) -> None:
        append((EV_START, name, parser.CurrentByteIndex))

    def end(name: str) -> None:
        offset = parser.CurrentByteIndex
        # Expat reports an empty tag's end after the tag.  An end right
        # after its own start, whose tag closes with "/>", is that end;
        # a start tag with content never closes with "/>".
        if events and events[-1][0] == EV_START and source[offset - 2] == "/":
            offset = events[-1][2]
        append((EV_END, name, offset))

    def text(data: str) -> None:
        nonlocal text_end
        # Buffered text is handed over where the construct after it
        # starts; a piece longer than the buffer comes at once, at its own
        # start.
        count = len(data)
        stop = parser.CurrentByteIndex
        if count > size:
            stop += count
        begin = stop - count
        if begin == text_end:  # no markup since the last piece: one run
            _kind, pieces, offset = events[-1]
            if isinstance(pieces, str):
                pieces = [pieces]
                events[-1] = (EV_TEXT, pieces, offset)
                split.append(len(events) - 1)
            pieces.append(data)
        else:
            append((EV_TEXT, data, begin))
        text_end = stop

    def flush(*_args: str) -> None:
        """A comment or PI ends a text run: a handler makes expat say so."""

    def parse(data: str, final: bool) -> None:
        # The handlers close over the parser: it is let go after the final
        # chunk or an error, or the parser, its handlers and the events
        # would live on in a cycle until the cyclic collector found them.
        nonlocal parser
        try:
            parser.Parse(data, final)
        except BaseException:
            parser = None
            raise
        if final:
            parser = None

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.CommentHandler = flush
    parser.ProcessingInstructionHandler = flush
    return parse, events, split


def _join_runs(events: list, split: list[int], ready: int) -> None:
    """Join the pieces of every split run in ``events[:ready]``.

    The rest of *split* is rebased for when ``events[:ready]`` is gone.
    """
    if not split:
        return
    for at in split:
        if at < ready:
            _kind, pieces, offset = events[at]
            events[at] = (EV_TEXT, "".join(pieces), offset)
    split[:] = [at - ready for at in split if at >= ready]


def _expat_chunks(source: str) -> Iterator[Event]:
    """The fast path over a document longer than one chunk.

    On an :class:`~pyexpat.ExpatError` the reference loop takes over from
    the start, past the events already yielded.
    """
    parse, events, split = _expat_reader(source, _CHUNK)
    length = len(source)
    yielded = 0
    for begin in range(0, length, _CHUNK):
        try:
            parse(source[begin : begin + _CHUNK], begin + _CHUNK >= length)
        except ExpatError:
            yield from islice(_reference_loop(source), yielded, None)
            return
        # A text run at the end may go on in the next chunk: hold it.
        ready = len(events)
        if ready and events[-1][0] == EV_TEXT:
            ready -= 1
        _join_runs(events, split, ready)
        yield from events[:ready]
        yielded += ready
        del events[:ready]


def _reference_loop(source: str) -> Iterator[Event]:
    """The events of *source* by regular expressions and the character
    lexer: every document the fast path does not take, and the answer
    whenever expat rejects one."""
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
                stop = source.find("<", pos)
                if stop < 0:
                    stop = length
                # Only up to the run's end: searching the whole rest of
                # the source per run is quadratic in runs.
                amp = source.find("&", pos, stop)
                if amp >= 0:
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
