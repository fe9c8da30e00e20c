"""Minimal valid instance synthesis.

``minimal_instance(dtd, x)`` builds the smallest (fewest elements) valid
subtree rooted at element ``x`` — the "silent completion" object that
justifies skipping a required position during potential-validity checking
and that the completion engine splices in for content-model positions the
document never supplied (the two ``<d>`` elements of the paper's Figure 3
are exactly such witnesses).

The cost of an element is ``1 +`` the minimum cost of a word of its content
model, computed as a least fixpoint over the mutually recursive
declarations; unproductive elements get infinite cost and synthesis raises
:class:`~repro.errors.UnusableElementError` for them.  Synthesis keeps the
open elements on an explicit stack, so a deep witness costs no call stack.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from repro.dtd import ast
from repro.dtd.ast import Choice, ContentNode, Name, Plus, Seq, fold
from repro.dtd.model import DTD
from repro.errors import UnusableElementError
from repro.xmlmodel.tree import XmlElement

__all__ = ["element_costs", "minimal_instance"]


@lru_cache(maxsize=128)
def element_costs(dtd: DTD) -> dict[str, float]:
    """Minimum node count of a valid subtree per element (inf = unproductive)."""
    costs: dict[str, float] = {name: math.inf for name in dtd.element_names()}

    def name_cost(name: str) -> float:
        return costs[name]

    changed = True
    while changed:
        changed = False
        for decl in dtd:
            regex = decl.content.regex(dtd)
            body = 0.0 if regex is None else ast.min_cost_word(regex, name_cost)
            total = 1.0 + body
            if total < costs[decl.name]:
                costs[decl.name] = total
                changed = True
    return costs


def _cheapest_word(node: ContentNode, costs: dict[str, float]) -> list[str]:
    """Element names of a minimum-cost word of *node* (empty text implied).

    One rule gives each node its :func:`~repro.dtd.ast.min_cost_word` cost
    and a word of that cost; a choice keeps its first cheapest alternative.
    """

    def up(current: ContentNode, results: list) -> tuple[float, list[str]]:
        if isinstance(current, Name):
            return costs[current.name], [current.name]
        if isinstance(current, Seq):
            return (
                sum(cost for cost, _ in results),
                [name for _, word in results for name in word],
            )
        if isinstance(current, Choice):
            return min(results, key=itemgetter(0))
        if isinstance(current, Plus):
            return results[0]
        return 0.0, []  # the empty text run, zero iterations of e* or e?

    return fold(node, up)[1]  # type: ignore[index]


def minimal_instance(dtd: DTD, element: str | None = None) -> XmlElement:
    """Build a minimal valid subtree rooted at *element* (default: DTD root).

    Raises :class:`~repro.errors.UnusableElementError` when the element is
    unproductive (no finite valid subtree exists).

    >>> from repro.dtd.catalog import paper_figure1
    >>> from repro.xmlmodel.serialize import to_xml
    >>> to_xml(minimal_instance(paper_figure1(), "f"))
    '<f><c></c><e></e></f>'
    """
    if element is None:
        element = dtd.root
    costs = element_costs(dtd)
    if math.isinf(costs[element]):
        raise UnusableElementError((element,))
    return _build(dtd, element, costs)


def _build(dtd: DTD, element: str, costs: dict[str, float]) -> XmlElement:
    root = XmlElement(element)
    stack = [root]
    while stack:
        node = stack.pop()
        regex = dtd.content_regex(node.name)
        if regex is None:
            continue
        for child_name in _cheapest_word(regex, costs):
            stack.append(node.append(XmlElement(child_name)))
    return root
