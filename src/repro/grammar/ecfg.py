"""Extended context-free grammars (regular right-part grammars).

An ECFG rule maps a nonterminal to a *regular expression* over grammar
symbols (the paper's footnote 4: languages recognized by ECFGs are context
free).  We reuse the content-model AST of :mod:`repro.dtd.ast` for the
regex structure, with :class:`~repro.dtd.ast.Name` leaves naming grammar
symbols (terminal or nonterminal) and ``PCData`` unused at this layer.

:func:`ecfg_to_cfg` performs the standard expansion into a plain CFG by
introducing fresh auxiliary nonterminals for ``Choice``/``Star``/``Opt``/
``Plus`` nodes; the result feeds the Earley baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.dtd.ast import Choice, ContentNode, Name, Opt, Plus, Seq, Star, fold
from repro.errors import GrammarError
from repro.grammar.cfg import Grammar, Production

__all__ = ["ECFG", "ecfg_to_cfg"]


@dataclass(frozen=True)
class ECFG:
    """An extended CFG.

    Attributes
    ----------
    start:
        The start nonterminal (the paper's ``S``).
    rules:
        Mapping from nonterminal to a *tuple of alternative* regexes.  The
        paper writes one regex per nonterminal; alternatives make the
        ``X -> <x> X̂ </x>`` / ``X -> X̂`` pair of ``G'`` direct to express.
        ``None`` as an alternative denotes the epsilon production (used for
        ``PCDATA -> ε`` and ``EMPTY`` content).
    nonterminals:
        The domain of ``rules``.
    """

    start: str
    rules: Mapping[str, tuple[ContentNode | None, ...]]

    def __post_init__(self) -> None:
        if self.start not in self.rules:
            raise GrammarError(f"ECFG start symbol {self.start!r} has no rule")

    @property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(self.rules)


#: The aux nonterminal kinds each inner regex node draws, in order.
_AUX_KINDS = {Seq: (), Choice: ("alt",), Star: ("star",), Opt: ("opt",), Plus: ("plus", "star")}


class _Expander:
    """Stateful regex-to-productions compiler with fresh-name generation."""

    def __init__(self, ecfg: ECFG) -> None:
        self._ecfg = ecfg
        self._productions: list[Production] = []
        self._fresh = 0

    def _fresh_name(self, head: str, kind: str) -> str:
        self._fresh += 1
        return f"{head}%{kind}{self._fresh}"

    def expand(self) -> Grammar:
        for head, alternatives in self._ecfg.rules.items():
            for regex in alternatives:
                body = () if regex is None else self._compile(regex, head)
                self._productions.append(Production(head, body))
        return Grammar(self._ecfg.start, self._productions)

    def _compile(self, node: ContentNode, head: str) -> tuple[str, ...]:
        """Compile *node* into a symbol sequence, emitting aux productions.

        Aux names are drawn in preorder, and productions are emitted in the
        order a left-to-right descent meets them: an ``e?`` rule's empty
        alternative before its item's productions, and each ``|``
        alternative right after its item's.
        """
        emit = self._productions.append
        opened: list[tuple[ContentNode, tuple[str, ...]]] = []  # with aux names

        def down(current: ContentNode) -> None:
            kinds = _AUX_KINDS.get(type(current))
            if kinds is not None:
                names = tuple(self._fresh_name(head, kind) for kind in kinds)
                if isinstance(current, Opt):
                    emit(Production(names[0], ()))
                opened.append((current, names))

        def up(current: ContentNode, bodies: list) -> tuple[str, ...]:
            if isinstance(current, Name):
                body: tuple[str, ...] = (current.name,)
            elif not opened or opened[-1][0] is not current:
                raise GrammarError(f"not an ECFG regex node: {current!r}")
            else:
                names = opened.pop()[1]
                body = names[:1]
                if isinstance(current, Seq):
                    body = tuple(symbol for item in bodies for symbol in item)
                elif isinstance(current, Star):
                    emit(Production(names[0], ()))
                    emit(Production(names[0], bodies[0] + body))
                elif isinstance(current, Opt):
                    emit(Production(names[0], bodies[0]))
                elif isinstance(current, Plus):
                    emit(Production(names[1], ()))
                    emit(Production(names[1], bodies[0] + names[1:]))
                    emit(Production(names[0], bodies[0] + names[1:]))
            if opened and isinstance(opened[-1][0], Choice):
                emit(Production(opened[-1][1][0], body))
            return body

        return fold(node, up, down)  # type: ignore[return-value]


def ecfg_to_cfg(ecfg: ECFG) -> Grammar:
    """Expand *ecfg* into a plain CFG (fresh aux nonterminals, epsilon rules).

    Auxiliary nonterminals are named ``<head>%<kind><n>`` — ``%`` cannot
    occur in element names or tag terminals, so they never collide.
    """
    return _Expander(ecfg).expand()
