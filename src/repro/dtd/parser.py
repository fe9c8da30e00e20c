"""Parser for DTD element type declarations.

Grammar implemented (XML 1.0 productions [45]-[51], paper ref [2]):

.. code-block:: text

    dtd          ::= elementdecl*
    elementdecl  ::= '<!ELEMENT' Name contentspec '>'
    contentspec  ::= 'EMPTY' | 'ANY' | Mixed | children
    Mixed        ::= '(' '#PCDATA' ('|' Name)* ')' '*'?
    children     ::= (choice | seq) ('?' | '*' | '+')?
    cp           ::= (Name | choice | seq) ('?' | '*' | '+')?
    choice       ::= '(' cp ('|' cp)+ ')'
    seq          ::= '(' cp (',' cp)* ')'

Notes
-----
* Per the XML spec, ``Mixed`` with at least one element name requires the
  trailing ``*``; a bare ``(#PCDATA)`` does not.  We additionally accept
  ``(#PCDATA)*``, which is also legal.
* A parenthesized group with exactly one ``cp`` and no separator parses as a
  one-item :class:`~repro.dtd.ast.Seq`; the AST keeps it so that
  round-tripping and the paper's position counting stay faithful.
"""

from __future__ import annotations

from repro.dtd.ast import Choice, ContentNode, Name, Opt, Plus, Seq, Star
from repro.dtd.lexer import Token, TokenKind, tokenize_dtd
from repro.dtd.model import (
    AnyContent,
    ChildrenContent,
    ContentSpec,
    DTD,
    ElementDecl,
    EmptyContent,
    MixedContent,
)
from repro.errors import DTDSemanticError, DTDSyntaxError

__all__ = ["parse_dtd", "parse_content_spec"]


class _Parser:
    """Token-stream cursor with one-token lookahead."""

    def __init__(self, source: str) -> None:
        self._tokens = list(tokenize_dtd(source))
        self._index = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def expect(self, kind: TokenKind, what: str) -> Token:
        token = self.current
        if token.kind is not kind:
            raise DTDSyntaxError(
                f"expected {what}, found {token.text or 'end of input'!r}",
                token.offset,
            )
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_dtd(self) -> list[ElementDecl]:
        decls: list[ElementDecl] = []
        while self.current.kind is TokenKind.ELEMENT_OPEN:
            decls.append(self.parse_elementdecl())
        self.expect(TokenKind.EOF, "'<!ELEMENT' or end of input")
        return decls

    def parse_elementdecl(self) -> ElementDecl:
        self.expect(TokenKind.ELEMENT_OPEN, "'<!ELEMENT'")
        name = self.expect(TokenKind.NAME, "element type name").text
        content = self.parse_contentspec()
        self.expect(TokenKind.GT, "'>'")
        return ElementDecl(name, content)

    def parse_contentspec(self) -> ContentSpec:
        token = self.current
        if token.kind is TokenKind.NAME and token.text == "EMPTY":
            self.advance()
            return EmptyContent()
        if token.kind is TokenKind.NAME and token.text == "ANY":
            self.advance()
            return AnyContent()
        if token.kind is not TokenKind.LPAREN:
            raise DTDSyntaxError(
                f"expected content specification, found {token.text!r}",
                token.offset,
            )
        # Distinguish Mixed from children by one extra token of lookahead.
        if self._tokens[self._index + 1].kind is TokenKind.PCDATA:
            return self.parse_mixed()
        model = self.parse_cp()
        if not isinstance(model, (Seq, Choice, Star, Plus, Opt)):
            raise DTDSyntaxError(
                "children content must be a parenthesized group", token.offset
            )
        return ChildrenContent(model)

    def parse_mixed(self) -> MixedContent:
        open_token = self.expect(TokenKind.LPAREN, "'('")
        self.expect(TokenKind.PCDATA, "'#PCDATA'")
        names: list[str] = []
        while self.current.kind is TokenKind.PIPE:
            self.advance()
            names.append(self.expect(TokenKind.NAME, "element type name").text)
        self.expect(TokenKind.RPAREN, "')'")
        has_star = self.current.kind is TokenKind.STAR
        if has_star:
            self.advance()
        if names and not has_star:
            raise DTDSyntaxError(
                "mixed content with element names requires a trailing '*'",
                open_token.offset,
            )
        if len(names) != len(set(names)):
            raise DTDSemanticError(
                "duplicate element name in mixed content model"
            )
        return MixedContent(tuple(names))

    def parse_cp(self) -> ContentNode:
        """One content particle; open groups wait on an explicit stack.

        A group's separator is ``|`` if the token after its first item is
        ``|``, else ``,``.
        """
        groups: list[list] = []  # per open group: [items so far, separator]
        while True:
            token = self.current
            if token.kind is TokenKind.LPAREN:
                self.advance()
                groups.append([[], None])
                continue
            if token.kind is not TokenKind.NAME:
                raise DTDSyntaxError(
                    f"expected element name or '(', found {token.text!r}",
                    token.offset,
                )
            self.advance()
            node = self._parse_occurrence(Name(token.text))
            while groups:
                group = groups[-1]
                group[0].append(node)
                if group[1] is None:
                    pipe = self.current.kind is TokenKind.PIPE
                    group[1] = TokenKind.PIPE if pipe else TokenKind.COMMA
                if self.current.kind is group[1]:
                    self.advance()
                    break  # the group's next item follows
                self.expect(TokenKind.RPAREN, "')'")
                items, separator = groups.pop()
                kind = Choice if separator is TokenKind.PIPE else Seq
                node = self._parse_occurrence(kind(tuple(items)))
            else:
                return node

    def _parse_occurrence(self, node: ContentNode) -> ContentNode:
        kind = self.current.kind
        if kind is TokenKind.QUESTION:
            self.advance()
            return Opt(node)
        if kind is TokenKind.STAR:
            self.advance()
            return Star(node)
        if kind is TokenKind.PLUS:
            self.advance()
            return Plus(node)
        return node


def parse_dtd(source: str, root: str | None = None, name: str = "dtd") -> DTD:
    """Parse DTD *source* text into a :class:`~repro.dtd.model.DTD`.

    Parameters
    ----------
    source:
        Text containing ``<!ELEMENT ...>`` declarations (``<!ATTLIST>``,
        ``<!ENTITY>``, ``<!NOTATION>`` declarations and comments are
        skipped).
    root:
        The designated root element type (the paper's ``r``).  Defaults to
        the first declared element, which matches every DTD in the paper.
    name:
        Optional label for the DTD (used in reports and benchmarks).

    Raises
    ------
    DTDSyntaxError
        On malformed declaration text.
    DTDSemanticError
        On duplicate declarations or references to undeclared elements.
    """
    decls = _Parser(source).parse_dtd()
    if not decls:
        raise DTDSemanticError("DTD contains no element type declarations")
    if root is None:
        root = decls[0].name
    return DTD(decls, root=root, name=name)


def parse_content_spec(source: str) -> ContentSpec:
    """Parse a bare content specification (handy in tests and doctests).

    >>> spec = parse_content_spec("(b?, (c | f), d)")
    >>> from repro.dtd.ast import to_text
    >>> to_text(spec.model)
    '(b?, (c | f), d)'
    """
    parser = _Parser(source)
    spec = parser.parse_contentspec()
    parser.expect(TokenKind.EOF, "end of input")
    return spec
