"""DTD analysis: productivity/usability, reachability, recursion classes.

This module implements the static analyses of Sections 3.3 and 4.1:

* **productivity / usability** — an element is *productive* when some finite
  valid subtree rooted at it exists, and *usable* (paper Section 3.3) when
  additionally it can occur in some valid document with the designated root.
  The paper assumes all elements usable; we compute the sets so the checkers
  stay exact without the assumption.
* **reachability graph** ``R_T`` (Definition 5) with its precomputed lookup
  table ``LT`` — both the paper's syntactic-occurrence edges and the refined
  *embed* edges (some word of the content model over completable symbols
  mentions the target), which coincide under the usability assumption.
* **recursion classification** (Definitions 6-8): recursive elements,
  PV-strong recursive elements (a self-derivation through non-star-group
  positions only), and the induced DTD classes *non-recursive*,
  *PV-weak recursive*, *PV-strong recursive*.

All results are aggregated in :class:`DTDAnalysis`, memoised per DTD via
:func:`analyze`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.dtd import ast
from repro.dtd.model import DTD, PCDATA
from repro.dtd.stargroups import flattened_content

__all__ = [
    "DTDClass",
    "DTDAnalysis",
    "analyze",
]


class DTDClass(Enum):
    """The three DTD classes of Section 4.3 (Definitions 6-8)."""

    NON_RECURSIVE = "non-recursive"
    PV_WEAK_RECURSIVE = "PV-weak recursive"
    PV_STRONG_RECURSIVE = "PV-strong recursive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _compute_productive(dtd: DTD) -> frozenset[str]:
    """Least fixpoint of "content model admits a word over productive symbols"."""
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for decl in dtd:
            if decl.name in productive:
                continue
            regex = decl.content.regex(dtd)
            if regex is None or ast.language_nullable(regex, productive.__contains__):
                productive.add(decl.name)
                changed = True
    return frozenset(productive)


def _closure(direct: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    """Transitive closure of *direct* (paths of length >= 1).

    Intermediate nodes of an insertion chain ``y -> z -> ... -> t`` need no
    productivity of their own: each inserted intermediate receives real
    content (the rest of the chain), and the requirement that its *sibling*
    positions be silently completable is already encoded in the edge
    predicate (``mentionable`` with productive-nullability).  The closure
    therefore expands through every node.
    """
    closure: dict[str, frozenset[str]] = {}
    for start in direct:
        reached: set[str] = set()
        frontier: list[str] = [start]
        seen_expanded: set[str] = set()
        while frontier:
            node = frontier.pop()
            for target in direct.get(node, frozenset()):
                if target not in reached:
                    reached.add(target)
                    if target not in seen_expanded:
                        seen_expanded.add(target)
                        frontier.append(target)
        closure[start] = frozenset(reached)
    return closure


@dataclass(frozen=True)
class DTDAnalysis:
    """All per-DTD static analysis results, computed once by :func:`analyze`.

    Attributes
    ----------
    dtd:
        The analysed DTD.
    productive:
        Elements admitting some finite valid subtree.
    usable:
        Productive elements that occur in some valid document rooted at
        ``dtd.root`` (paper Section 3.3's usable elements).
    direct:
        Syntactic-occurrence edges of Definition 5's ``R_T`` — ``direct[x]``
        is every element name (or :data:`~repro.dtd.model.PCDATA`) occurring
        in ``r_x``.
    embed_direct:
        Refined edges: ``y in embed_direct[x]`` iff some word of ``r_x``
        over completable symbols mentions ``y``.  Equal to ``direct`` when
        every element is usable.
    reach:
        Paper lookup table ``LT``: transitive closure of ``direct``
        (length >= 1 paths), exactly Definition 5.
    embed_reach:
        Transitive closure of ``embed_direct`` — the table the exact
        checkers consult ("token ``t`` can be wrapped under a missing
        ``x``").
    strong_direct / strong_reach:
        Same, restricted to mentions *outside* star-groups (Definition 7).
    recursive_elements / strong_recursive_elements:
        Definitions 6 and 7 element sets.
    dtd_class:
        The Definition 6-8 classification of the whole DTD.
    """

    dtd: DTD
    productive: frozenset[str]
    usable: frozenset[str]
    direct: dict[str, frozenset[str]]
    embed_direct: dict[str, frozenset[str]]
    reach: dict[str, frozenset[str]]
    embed_reach: dict[str, frozenset[str]]
    strong_direct: dict[str, frozenset[str]]
    strong_reach: dict[str, frozenset[str]]
    recursive_elements: frozenset[str]
    strong_recursive_elements: frozenset[str]
    dtd_class: DTDClass

    # -- lookup-table API (the paper's ``LT``) -----------------------------

    def lookup(self, source: str, target: str) -> bool:
        """Paper ``LT(t1, t2)``: is *target* reachable from *source* in ``R_T``?

        Paths have length >= 1, so ``lookup(x, x)`` is true exactly for
        recursive elements (cf. Example 4's remark that ``b`` is not in the
        lookup table of ``b``).
        """
        return target in self.reach.get(source, frozenset())

    def can_embed(self, source: str, target: str) -> bool:
        """Exact variant of :meth:`lookup` used by the robust checkers.

        True iff a token *target* (an element tag, or
        :data:`~repro.dtd.model.PCDATA` for character data) can appear
        somewhere strictly inside an *inserted* ``source`` element, with
        everything else completable.
        """
        return target in self.embed_reach.get(source, frozenset())

    def is_recursive(self, name: str) -> bool:
        """Definition 6: ``X =>* X`` in ``G'``."""
        return name in self.recursive_elements

    def is_strong_recursive(self, name: str) -> bool:
        """Definition 7: a self-derivation through non-star-group positions."""
        return name in self.strong_recursive_elements

    @property
    def all_usable(self) -> bool:
        """The paper's standing assumption (Section 3.3)."""
        return len(self.usable) == len(self.dtd)

    @property
    def unusable(self) -> frozenset[str]:
        return frozenset(self.dtd.element_names()) - self.usable


def _mention_edges(dtd: DTD, productive: frozenset[str], model_of) -> dict[str, frozenset[str]]:
    """Per element: what some completable word of ``model_of(x)`` mentions.

    Over the content models these are the embed edges; over the flattened
    models, where a star-group leaf mentions nothing, they are Definition
    7's strong edges, so a PV-strong self-derivation avoids star-groups.
    """
    edges: dict[str, frozenset[str]] = {}
    for name in dtd.element_names():
        model = model_of(name)
        mentions = () if model is None else ast.mentionable(model, productive.__contains__)
        edges[name] = frozenset(PCDATA if symbol is None else symbol for symbol in mentions)
    return edges


@lru_cache(maxsize=256)
def analyze(dtd: DTD) -> DTDAnalysis:
    """Compute (and memoise) the full static analysis of *dtd*."""
    productive = _compute_productive(dtd)

    direct: dict[str, frozenset[str]] = {}
    for decl in dtd:
        targets = set(dtd.referenced_names(decl.name))
        if dtd.mentions_pcdata(decl.name):
            targets.add(PCDATA)
        direct[decl.name] = frozenset(targets)

    embed_direct = _mention_edges(dtd, productive, dtd.content_regex)
    strong_direct = _mention_edges(
        dtd, productive, lambda name: flattened_content(dtd, name)
    )

    reach = _closure(direct)
    embed_reach = _closure(embed_direct)
    strong_reach = _closure(strong_direct)

    recursive = frozenset(
        name for name in dtd.element_names() if name in embed_reach[name]
    )
    strong_recursive = frozenset(
        name for name in dtd.element_names() if name in strong_reach[name]
    )

    if strong_recursive:
        dtd_class = DTDClass.PV_STRONG_RECURSIVE
    elif recursive:
        dtd_class = DTDClass.PV_WEAK_RECURSIVE
    else:
        dtd_class = DTDClass.NON_RECURSIVE

    # Usable = productive and occurring in some valid document with the
    # designated root: the root plus everything embed-reachable from it,
    # filtered to productive elements (an unproductive element can be a
    # reachability *endpoint* but never completes into a valid document).
    usable: set[str] = set()
    if dtd.root in productive:
        usable.add(dtd.root)
        for target in embed_reach.get(dtd.root, frozenset()):
            if target != PCDATA and target in productive:
                usable.add(target)

    return DTDAnalysis(
        dtd=dtd,
        productive=productive,
        usable=frozenset(usable),
        direct=direct,
        embed_direct=embed_direct,
        reach=reach,
        embed_reach=embed_reach,
        strong_direct=strong_direct,
        strong_reach=strong_reach,
        recursive_elements=recursive,
        strong_recursive_elements=strong_recursive,
        dtd_class=dtd_class,
    )
