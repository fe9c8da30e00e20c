"""Tokenizer for XML document text.

Supports the subset of XML 1.0 a document-centric editor produces: start
tags with attributes, end tags, self-closing tags, character data with the
five predefined entities plus numeric character references, CDATA sections,
comments and processing instructions (both skipped).  DOCTYPE declarations
are skipped too — DTDs are parsed separately by :mod:`repro.dtd`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterator

from repro.errors import XmlSyntaxError

__all__ = ["XmlTokenKind", "XmlToken", "tokenize_xml"]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")
_WHITESPACE = set(" \t\r\n")

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
_DECIMAL = frozenset("0123456789")
_HEX = frozenset("0123456789abcdefABCDEF")


class XmlTokenKind(Enum):
    START_TAG = auto()
    END_TAG = auto()
    EMPTY_TAG = auto()  # self-closing <a/>
    TEXT = auto()
    EOF = auto()


@dataclass(frozen=True)
class XmlToken:
    kind: XmlTokenKind
    name: str = ""
    text: str = ""
    attributes: tuple[tuple[str, str], ...] = field(default=())
    line: int = 1
    column: int = 1


class _Cursor:
    """Character cursor that tracks line/column for error messages."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.position = 0
        self.line = 1
        self.column = 1

    def at_end(self) -> bool:
        return self.position >= len(self.source)

    def peek(self) -> str:
        return self.source[self.position] if not self.at_end() else ""

    def startswith(self, prefix: str) -> bool:
        return self.source.startswith(prefix, self.position)

    def take(self, count: int = 1) -> str:
        chunk = self.source[self.position : self.position + count]
        for char in chunk:
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.position += count
        return chunk

    def skip_until(self, marker: str, what: str) -> None:
        end = self.source.find(marker, self.position)
        if end < 0:
            raise XmlSyntaxError(f"unterminated {what}", self.line, self.column)
        self.take(end - self.position + len(marker))

    def error(self, message: str) -> XmlSyntaxError:
        return XmlSyntaxError(message, self.line, self.column)


def _scan_name(cursor: _Cursor) -> str:
    if cursor.peek() not in _NAME_START:
        raise cursor.error(f"expected a name, found {cursor.peek()!r}")
    chars = [cursor.take()]
    while not cursor.at_end() and cursor.peek() in _NAME_CHARS:
        chars.append(cursor.take())
    return "".join(chars)


def _skip_whitespace(cursor: _Cursor) -> None:
    while not cursor.at_end() and cursor.peek() in _WHITESPACE:
        cursor.take()


def _reference_text(body: str) -> str | None:
    """The text of the reference ``&body;``, or ``None`` if it is not one.

    *body* names one of the five predefined entities, or is a character
    reference: ``#`` and ASCII decimal digits, or ``#x``/``#X`` and ASCII
    hex digits, for a code point XML 1.0's ``Char`` production allows.
    """
    if not body.startswith("#"):
        return _ENTITIES.get(body)
    if body.startswith(("#x", "#X")):
        digits, base, allowed = body[2:], 16, _HEX
    else:
        digits, base, allowed = body[1:], 10, _DECIMAL
    if not digits or not allowed.issuperset(digits):
        return None
    code = int(digits, base)
    if (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    ):
        return chr(code)
    return None


def _decode_reference(cursor: _Cursor) -> str:
    """Decode an entity or character reference starting at ``&``."""
    line, column = cursor.line, cursor.column
    cursor.take()  # '&'
    end = cursor.source.find(";", cursor.position)
    if end < 0 or end - cursor.position > 10:
        raise XmlSyntaxError("unterminated entity reference", line, column)
    body = cursor.source[cursor.position : end]
    cursor.take(end - cursor.position + 1)
    text = _reference_text(body)
    if text is None:
        what = "invalid character reference" if body.startswith("#") else "unknown entity"
        raise XmlSyntaxError(f"{what} &{body};", line, column)
    return text


def _scan_attributes(cursor: _Cursor) -> tuple[tuple[str, str], ...]:
    attributes: list[tuple[str, str]] = []
    while True:
        _skip_whitespace(cursor)
        if cursor.at_end() or cursor.peek() in (">", "/"):
            return tuple(attributes)
        name = _scan_name(cursor)
        _skip_whitespace(cursor)
        if cursor.peek() != "=":
            raise cursor.error(f"expected '=' after attribute {name!r}")
        cursor.take()
        _skip_whitespace(cursor)
        quote = cursor.peek()
        if quote not in ("'", '"'):
            raise cursor.error("attribute value must be quoted")
        cursor.take()
        value_chars: list[str] = []
        while not cursor.at_end() and cursor.peek() != quote:
            if cursor.peek() == "&":
                value_chars.append(_decode_reference(cursor))
            elif cursor.peek() == "<":
                raise cursor.error("'<' is not allowed in attribute values")
            else:
                value_chars.append(cursor.take())
        if cursor.at_end():
            raise cursor.error("unterminated attribute value")
        cursor.take()  # closing quote
        attributes.append((name, "".join(value_chars)))


def _scan_tag(cursor: _Cursor) -> XmlToken:
    line, column = cursor.line, cursor.column
    cursor.take()  # '<'
    if cursor.peek() == "/":
        cursor.take()
        name = _scan_name(cursor)
        _skip_whitespace(cursor)
        if cursor.peek() != ">":
            raise cursor.error(f"malformed end tag </{name}")
        cursor.take()
        return XmlToken(XmlTokenKind.END_TAG, name=name, line=line, column=column)
    name = _scan_name(cursor)
    attributes = _scan_attributes(cursor)
    if cursor.startswith("/>"):
        cursor.take(2)
        return XmlToken(
            XmlTokenKind.EMPTY_TAG,
            name=name,
            attributes=attributes,
            line=line,
            column=column,
        )
    if cursor.peek() == ">":
        cursor.take()
        return XmlToken(
            XmlTokenKind.START_TAG,
            name=name,
            attributes=attributes,
            line=line,
            column=column,
        )
    raise cursor.error(f"malformed start tag <{name}")


def tokenize_xml(source: str) -> Iterator[XmlToken]:
    """Yield the markup/text tokens of *source*, ending with ``EOF``.

    Character data between tags is emitted as a single ``TEXT`` token per
    maximal run (entity references decoded, CDATA inlined); comments,
    processing instructions, the XML declaration and DOCTYPE are skipped.
    """
    cursor = _Cursor(source)
    text_chars: list[str] = []
    text_line, text_column = 1, 1

    def flush_text() -> Iterator[XmlToken]:
        nonlocal text_chars
        if text_chars:
            yield XmlToken(
                XmlTokenKind.TEXT,
                text="".join(text_chars),
                line=text_line,
                column=text_column,
            )
            text_chars = []

    while not cursor.at_end():
        if cursor.startswith("<!--"):
            yield from flush_text()
            cursor.skip_until("-->", "comment")
            continue
        if cursor.startswith("<![CDATA["):
            if not text_chars:
                text_line, text_column = cursor.line, cursor.column
            start = cursor.position + len("<![CDATA[")
            end = cursor.source.find("]]>", start)
            if end < 0:
                raise cursor.error("unterminated CDATA section")
            text_chars.append(cursor.source[start:end])
            cursor.take(end - cursor.position + 3)
            continue
        if cursor.startswith("<?"):
            yield from flush_text()
            cursor.skip_until("?>", "processing instruction")
            continue
        if cursor.startswith("<!DOCTYPE"):
            yield from flush_text()
            # Skip to the matching '>' allowing one bracketed internal subset.
            depth = 0
            while not cursor.at_end():
                char = cursor.take()
                if char == "[":
                    depth += 1
                elif char == "]":
                    depth -= 1
                elif char == ">" and depth <= 0:
                    break
            else:
                raise cursor.error("unterminated DOCTYPE")
            continue
        if cursor.peek() == "<":
            yield from flush_text()
            yield _scan_tag(cursor)
            continue
        if cursor.peek() == "&":
            if not text_chars:
                text_line, text_column = cursor.line, cursor.column
            text_chars.append(_decode_reference(cursor))
            continue
        if not text_chars:
            text_line, text_column = cursor.line, cursor.column
        text_chars.append(cursor.take())
    yield from flush_text()
    yield XmlToken(XmlTokenKind.EOF, line=cursor.line, column=cursor.column)
