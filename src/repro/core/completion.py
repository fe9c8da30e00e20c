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
  sub-derivation's tokens — possibly none, in which case the recursion
  bottoms out in a synthesized minimal witness.

Because ``CONTENT:x`` carries the **original** content model (with its
``?``/``+`` intact), any derivation reconstructs a *fully valid* content,
not merely a potentially valid one.  Recursion over actual element children
completes the whole document.

The parser is a memoized top-down interval parser with cycle-safe caching
(derivability is a least fixpoint, so "true" results are always cacheable
while "false" results are cached only when no in-progress cycle was
touched).  节点-level spans are small in practice, and completions are an
editor-scale operation, so the cubic worst case is acceptable; the fast
recognizers remain the per-keystroke path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

# Interval parsing and reconstruction recurse proportionally to the token
# span (star chains unroll one level per token); lift CPython's default
# limit so editor-scale nodes complete comfortably.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

from repro.dtd.model import DTD
from repro.errors import ReproError
from repro.grammar.build import build_content_cfg, content_nonterminal
from repro.grammar.cfg import Grammar, Production
from repro.xmlmodel.delta import SIGMA
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlNode, XmlText

__all__ = [
    "CompletionDepthError",
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


class CompletionDepthError(ReproError):
    """The document nests deeper than completion can follow.

    Completion recurses once per document level (and per token of a
    content span), so a deep enough document reaches the interpreter's
    recursion limit.  That says nothing about potential validity: this is
    not a :class:`CompletionError`.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(
            "document nests too deep to complete: completion recurses per "
            f"level and reached the recursion limit ({limit} frames)"
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
        """Whether *symbol* derives ``tokens[i:j]`` (chart lookup)."""
        if not self.grammar.is_nonterminal(symbol):
            return j == i + 1 and self._tokens[i] == symbol
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
                        if self._body_derives(production.body, 0, i, i + width):
                            cell.add(head)
                            changed = True

    def _body_derives(
        self, body: tuple[str, ...], index: int, i: int, j: int
    ) -> bool:
        """Whether ``body[index:]`` derives ``tokens[i:j]`` given the chart
        up to (and including the in-progress fixpoint of) width ``j - i``."""
        if index == len(body):
            return i == j
        symbol = body[index]
        if not self.grammar.is_nonterminal(symbol):
            return (
                i < j
                and self._tokens[i] == symbol
                and self._body_derives(body, index + 1, i + 1, j)
            )
        for split in range(i, j + 1):
            if symbol not in self._chart[i][split - i]:
                continue
            if self._body_derives(body, index + 1, split, j):
                return True
        return False

    # -- reconstruction ----------------------------------------------------------

    def derivation(self, symbol: str, i: int, j: int) -> "_Node":
        """Reconstruct one derivation tree (caller guarantees derivability).

        The DFS is guarded by the set of in-progress ``(symbol, i, j)``
        items: a minimal-height derivation never repeats an item along a
        root-to-leaf path (the repeat could be shortcut), so restricting
        the search to repeat-free paths preserves completeness while
        guaranteeing termination on cyclic unit/epsilon chains.
        """
        tree = self._reconstruct(symbol, i, j, set())
        if tree is None:  # pragma: no cover - caller checks derives() first
            raise AssertionError(f"no derivation for {symbol} over [{i},{j})")
        return tree

    def _reconstruct(
        self, symbol: str, i: int, j: int, path: set[tuple[str, int, int]]
    ) -> "_Node | None":
        grammar = self.grammar
        if not grammar.is_nonterminal(symbol):
            if j == i + 1 and self._tokens[i] == symbol:
                return _Node(symbol, i, j, None, ())
            return None
        if not self.derives(symbol, i, j):
            return None
        key = (symbol, i, j)
        if key in path:
            return None
        path.add(key)
        try:
            for production in grammar.alternatives(symbol):
                children = self._reconstruct_body(production.body, 0, i, j, path)
                if children is not None:
                    return _Node(symbol, i, j, production, tuple(children))
            return None
        finally:
            path.discard(key)

    def _reconstruct_body(
        self,
        body: tuple[str, ...],
        index: int,
        i: int,
        j: int,
        path: set[tuple[str, int, int]],
    ) -> "list[_Node] | None":
        if index == len(body):
            return [] if i == j else None
        symbol = body[index]
        if not self.grammar.is_nonterminal(symbol):
            if i < j and self._tokens[i] == symbol:
                rest = self._reconstruct_body(body, index + 1, i + 1, j, path)
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
            child = self._reconstruct(symbol, i, split, path)
            if child is None:
                continue
            rest = self._reconstruct_body(body, index + 1, split, j, path)
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


class _Completer:
    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.parser = _parser_for(dtd)
        self.inserted = 0

    def complete(self, element: XmlElement, path: str) -> XmlElement:
        if element.name not in self.dtd:
            raise CompletionError(path, element.name)
        tokens, items = _token_items(element)
        start = content_nonterminal(element.name)
        self.parser.set_tokens(tokens)
        if not self.parser.derives(start, 0, len(tokens)):
            raise CompletionError(path, element.name)
        derivation = self.parser.derivation(start, 0, len(tokens))
        # Materialize before recursing: recursion re-targets the shared parser.
        plan = _extract_plan(derivation)
        output = XmlElement(element.name, attributes=dict(element.attributes))
        self._apply_plan(plan, items, output, path)
        return output

    def _apply_plan(
        self,
        plan: list["_PlanItem"],
        items: list[list[XmlNode]],
        target: XmlElement,
        path: str,
    ) -> None:
        for entry in plan:
            if isinstance(entry, _Direct):
                for node in items[entry.token_index]:
                    if isinstance(node, XmlText):
                        target.append(XmlText(node.text))
                    else:
                        child_path = f"{path}/{node.name}"
                        target.append(self.complete(node, child_path))
            else:
                self.inserted += 1
                wrapper = XmlElement(entry.element)
                target.append(wrapper)
                self._apply_plan(entry.children, items, wrapper, path)


@dataclass(frozen=True)
class _Direct:
    """A token kept at the current level (existing child / text run)."""

    token_index: int


@dataclass(frozen=True)
class _Inserted:
    """A synthesized element wrapping a sub-plan (possibly empty)."""

    element: str
    children: list["_PlanItem"]


_PlanItem = _Direct | _Inserted


def _extract_plan(node: _Node) -> list[_PlanItem]:
    """Flatten a ``CONTENT:x`` derivation into direct/inserted items."""
    plan: list[_PlanItem] = []
    _collect(node, plan)
    return plan


def _collect(node: _Node, plan: list[_PlanItem]) -> None:
    production = node.production
    if production is None:
        # Terminal leaf: one consumed token.
        plan.append(_Direct(node.start))
        return
    head = production.head
    if head.startswith("CONTENT:"):
        for child in node.children:
            _collect(child, plan)
        return
    if head.startswith("C:"):
        if (
            len(node.children) == 1
            and node.children[0].production is not None
            and node.children[0].production.head.startswith("CONTENT:")
        ):
            # C:y -> CONTENT:y — an inserted <y> wrapping the sub-plan.
            element = head[len("C:") :]
            if element == SIGMA:
                # C:#PCDATA -> ε: nothing to emit (optional text omitted).
                return
            inner: list[_PlanItem] = []
            _collect(node.children[0], inner)
            plan.append(_Inserted(element, inner))
            return
        if not node.children:
            # C:#PCDATA -> ε
            return
        # C:y -> y — the direct token.
        _collect(node.children[0], plan)
        return
    # Auxiliary regex nonterminals (%alt/%star/%opt/%plus): structural.
    for child in node.children:
        _collect(child, plan)


def complete_element(dtd: DTD, element: XmlElement) -> tuple[XmlElement, int]:
    """Complete the subtree rooted at *element*; returns (new tree, insertions).

    Raises :class:`CompletionDepthError` when the subtree nests deeper
    than the recursion limit lets completion follow.
    """
    completer = _Completer(dtd)
    try:
        completed = completer.complete(element, f"/{element.name}")
    except RecursionError:
        raise CompletionDepthError(sys.getrecursionlimit()) from None
    return completed, completer.inserted


def complete_document(dtd: DTD, document: XmlDocument) -> CompletionResult:
    """Compute a valid extension of *document* (Definition 2's ``Ext``).

    Raises :class:`CompletionError` when (and only when) the document is not
    potentially valid, and :class:`CompletionDepthError` when it nests too
    deep to complete.  The returned document preserves all original nodes,
    their order and their character data; only new element wrappers are
    added — exactly the paper's notion of extension.
    """
    if document.root.name != dtd.root:
        raise CompletionError("/", document.root.name)
    completed, inserted = complete_element(dtd, document.root)
    return CompletionResult(XmlDocument(completed), inserted)
