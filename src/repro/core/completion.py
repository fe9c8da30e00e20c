"""Constructive completion: turn a potentially valid document into a valid one.

Definition 1 promises that a potentially valid document "can be made valid
by inserting more markup tags"; this module *computes* such an extension —
the reproduction of the paper's Figure 3, where the Example 1 string ``w``
gains two ``<d>`` elements and becomes valid.

Method
------
Per node, the children token sequence (``Delta_T``) is parsed against the
per-element content grammar of :func:`repro.grammar.build.build_content_cfg`
— the same grammar the exact ECPV reference uses.  A derivation of
``CONTENT:x`` assigns every token to either

* a *direct* slot (``C:y -> y``): the existing child stays at this level, or
* an *inserted* element (``C:y -> CONTENT:y``): a new ``<y>`` wraps the
  sub-derivation's tokens — possibly none, in which case the derivation
  bottoms out in a synthesized minimal witness.

Because ``CONTENT:x`` carries the **original** content model (with its
``?``/``+`` intact), any derivation reconstructs a *fully valid* content,
not merely a potentially valid one.  One pass over the tree walk completes
the whole document: each element's derivation places its actual element
children, and the walk completes them in turn.

Derivability is a CYK-style chart over the un-binarized grammar.  One
derivation is reconstructed by a depth-first search over productions and
splits whose frames run on an explicit stack
(:func:`~repro.core.trampoline.trampoline`), so neither document depth nor
content width costs interpreter stack.  Node-level spans are small in
practice, and completions are an editor-scale operation, so the cubic
worst case is acceptable; the fast recognizers remain the per-keystroke
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from repro.core.trampoline import trampoline
from repro.dtd.model import DTD
from repro.errors import ReproError
from repro.grammar.build import build_content_cfg, content_nonterminal
from repro.grammar.cfg import Grammar, Production
from repro.xmlmodel.delta import SIGMA
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlNode, XmlText

__all__ = [
    "CompletionError",
    "CompletionResult",
    "complete_document",
    "complete_element",
]


class CompletionError(ReproError):
    """The document is not potentially valid, so no completion exists."""

    def __init__(self, path: str, element: str) -> None:
        self.path = path
        self.element = element
        super().__init__(
            f"no completion exists for <{element}> at {path}: "
            "the content cannot be completed by tag insertions alone"
        )


@dataclass(frozen=True)
class CompletionResult:
    """A completed (valid) document plus how many elements were inserted."""

    document: XmlDocument
    inserted: int


# ---------------------------------------------------------------------------
# Interval parser over the content grammar
# ---------------------------------------------------------------------------


class _IntervalParser:
    """Decides (and reconstructs) ``symbol =>* tokens[i:j]`` derivations.

    Derivability is computed bottom-up into a chart (CYK-style over the
    un-binarized grammar): spans in increasing width, with a fixpoint loop
    per span so unit/epsilon cycles — which the content grammars are full
    of — converge to their least fixpoint in polynomial time.
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self._tokens: tuple[str, ...] = ()
        self._chart: list[list[set[str]]] = []

    def set_tokens(self, tokens: Sequence[str]) -> None:
        self._tokens = tuple(tokens)
        self._build_chart()

    # -- recognition ---------------------------------------------------------

    def derives(self, symbol: str, i: int, j: int) -> bool:
        """Whether nonterminal *symbol* derives ``tokens[i:j]`` (chart lookup)."""
        return symbol in self._chart[i][j - i]

    def _build_chart(self) -> None:
        grammar = self.grammar
        n = len(self._tokens)
        # _chart[i][width] = set of nonterminals deriving tokens[i:i+width].
        self._chart = [
            [set() for _width in range(n - i + 1)] for i in range(n + 1)
        ]
        for i in range(n + 1):
            self._chart[i][0] = set(grammar.nullable)
        for width in range(1, n + 1):
            for i in range(n - width + 1):
                cell = self._chart[i][width]
                changed = True
                while changed:
                    changed = False
                    for production in grammar.productions:
                        head = production.head
                        if head in cell:
                            continue
                        if self._body_derives(production.body, i, i + width):
                            cell.add(head)
                            changed = True

    def _body_derives(
        self, body: tuple[str, ...], i: int, j: int, index: int = 0
    ) -> bool:
        """Whether ``body[index:]`` derives ``tokens[i:j]`` given the chart
        up to (and including the in-progress fixpoint of) width ``j - i``.

        One forward set of the token positions the symbols read so far
        can end at, advanced one symbol at a time.
        """
        chart, tokens = self._chart, self._tokens
        ends = {i}
        for symbol in body[index:]:
            if self.grammar.is_nonterminal(symbol):
                ends = {
                    split
                    for start in ends
                    for split in range(start, j + 1)
                    if symbol in chart[start][split - start]
                }
            else:
                ends = {
                    start + 1
                    for start in ends
                    if start < j and tokens[start] == symbol
                }
            if not ends:
                return False
        return j in ends

    # -- reconstruction ----------------------------------------------------------

    def derivation(self, symbol: str, i: int, j: int) -> "_Node":
        """Reconstruct one derivation tree (caller guarantees derivability).

        The DFS is guarded by the set of in-progress ``(symbol, i, j)``
        items: a minimal-height derivation never repeats an item along a
        root-to-leaf path (the repeat could be shortcut), so restricting
        the search to repeat-free paths preserves completeness while
        guaranteeing termination on cyclic unit/epsilon chains.  Before
        it descends, the search asks the chart whether a production's
        body derives the span and whether the rest of a body derives the
        rest of it: a branch that fails either check would fail anyway.
        """
        tree = trampoline(self._reconstruct(symbol, i, j, set()))
        if tree is None:  # pragma: no cover - caller checks derives() first
            raise AssertionError(f"no derivation for {symbol} over [{i},{j})")
        return tree

    def _reconstruct(
        self, symbol: str, i: int, j: int, path: set[tuple[str, int, int]]
    ) -> Iterator:
        """A derivation of nonterminal *symbol* over ``[i, j)``, or ``None``."""
        key = (symbol, i, j)
        if key in path:
            return None
        path.add(key)
        for production in self.grammar.alternatives(symbol):
            if not self._body_derives(production.body, i, j):
                continue
            children = yield self._reconstruct_body(production.body, 0, i, j, path)
            if children is not None:
                path.discard(key)
                return _Node(symbol, i, j, production, tuple(children))
        path.discard(key)
        return None

    def _reconstruct_body(
        self,
        body: tuple[str, ...],
        index: int,
        i: int,
        j: int,
        path: set[tuple[str, int, int]],
    ) -> Iterator:
        """Derivations of ``body[index:]`` over ``[i, j)``, or ``None``."""
        if index == len(body):
            return [] if i == j else None
        symbol = body[index]
        if not self.grammar.is_nonterminal(symbol):
            if i < j and self._tokens[i] == symbol:
                rest = yield self._reconstruct_body(body, index + 1, i + 1, j, path)
                if rest is not None:
                    return [_Node(symbol, i, i + 1, None, ()), *rest]
            return None
        # Longest-first split order: prefer consuming real tokens in the
        # current slot over synthesizing empty insertions before them.
        # This is what makes the Example 1 completion come out as the
        # paper's Figure 3 (two <d> insertions) rather than a larger one.
        for split in range(j, i - 1, -1):
            if not self.derives(symbol, i, split):
                continue
            if not self._body_derives(body, split, j, index + 1):
                continue
            child = yield self._reconstruct(symbol, i, split, path)
            if child is None:
                continue
            rest = yield self._reconstruct_body(body, index + 1, split, j, path)
            if rest is not None:
                return [child, *rest]
        return None


@dataclass(frozen=True)
class _Node:
    """A derivation-tree node over the content grammar."""

    symbol: str
    start: int
    end: int
    production: Production | None
    children: tuple["_Node", ...]


@lru_cache(maxsize=64)
def _parser_for(dtd: DTD) -> _IntervalParser:
    return _IntervalParser(build_content_cfg(dtd))


# ---------------------------------------------------------------------------
# Document assembly
# ---------------------------------------------------------------------------


def _token_items(element: XmlElement) -> tuple[list[str], list[list[XmlNode]]]:
    """``Delta_T`` tokens plus, per token, the original child nodes it covers."""
    tokens: list[str] = []
    items: list[list[XmlNode]] = []
    for child in element.children:
        if isinstance(child, XmlText):
            if not child.text:
                continue
            if tokens and tokens[-1] == SIGMA and isinstance(
                items[-1][-1], XmlText
            ):
                items[-1].append(child)
                continue
            tokens.append(SIGMA)
            items.append([child])
        else:
            tokens.append(child.name)
            items.append([child])
    return tokens, items


def _place(
    derivation: _Node,
    items: list[list[XmlNode]],
    target: XmlElement,
    path: str,
    placed: dict[int, tuple[XmlElement, str]],
) -> int:
    """Append what *derivation* assigns to *target*; return the insertions.

    A kept token's nodes go in at their level: text as a copy, an element
    as an empty output that *placed* keys by the element for the tree
    walk to fill.  ``C:y -> CONTENT:y`` is an inserted ``<y>``: the nodes
    under it go into it until the ``None`` pushed after them pops it.
    """
    inserted = 0
    targets = [target]
    stack: list[_Node | None] = [derivation]
    while stack:
        node = stack.pop()
        if node is None:
            targets.pop()
            continue
        production = node.production
        if production is None:  # a terminal: one token kept at this level
            for child in items[node.start]:
                if isinstance(child, XmlText):
                    targets[-1].append(XmlText(child.text))
                else:
                    output = XmlElement(child.name, attributes=dict(child.attributes))
                    targets[-1].append(output)
                    placed[id(child)] = (output, f"{path}/{child.name}")
            continue
        if (
            production.head.startswith("C:")
            and node.children
            and node.children[0].production is not None
        ):
            wrapper = XmlElement(production.head[len("C:") :])
            targets[-1].append(wrapper)
            targets.append(wrapper)
            stack.append(None)
            inserted += 1
        stack.extend(reversed(node.children))
    return inserted


def complete_element(dtd: DTD, element: XmlElement) -> tuple[XmlElement, int]:
    """Complete the subtree rooted at *element*; returns (new tree, insertions).

    One pass over the tree walk: each element's derivation places its
    children's empty outputs, which the walk fills when it reaches them.
    The walk is pre-order, so a :class:`CompletionError` names the first
    element in document order whose content cannot be completed.
    """
    parser = _parser_for(dtd)
    completed = XmlElement(element.name, attributes=dict(element.attributes))
    placed = {id(element): (completed, f"/{element.name}")}
    inserted = 0
    for node in element.iter_elements():
        output, path = placed.pop(id(node))
        if node.name not in dtd:
            raise CompletionError(path, node.name)
        tokens, items = _token_items(node)
        start = content_nonterminal(node.name)
        parser.set_tokens(tokens)
        if not parser.derives(start, 0, len(tokens)):
            raise CompletionError(path, node.name)
        derivation = parser.derivation(start, 0, len(tokens))
        inserted += _place(derivation, items, output, path, placed)
    return completed, inserted


def complete_document(dtd: DTD, document: XmlDocument) -> CompletionResult:
    """Compute a valid extension of *document* (Definition 2's ``Ext``).

    Raises :class:`CompletionError` when (and only when) the document is not
    potentially valid.  The returned document preserves all original nodes,
    their order and their character data; only new element wrappers are
    added — exactly the paper's notion of extension.
    """
    if document.root.name != dtd.root:
        raise CompletionError("/", document.root.name)
    completed, inserted = complete_element(dtd, document.root)
    return CompletionResult(XmlDocument(completed), inserted)
