"""Star-groups (Definition 4) and the Proposition 1 flattening.

After Corollary 3.1 normalization a content model contains only ``Seq``,
``Choice``, ``Star``, ``Name`` and ``PCData`` nodes.  Definition 4 singles
out the *maximal* starred subexpressions — the **star-groups**: every ``e*``
is either a star-group or nested inside one, and no star-group contains
another.  Proposition 1 then licenses replacing each star-group by
``(a1, ..., an)*`` over its member element set: the PV language only depends
on *which* symbols a star-group contains, not on its internal expression.

The flattened form is the input of the paper's DAG model (Section 4.2):
a tree over ``Seq``/``Choice`` whose leaves are either simple ``Name``
occurrences or opaque :class:`~repro.dtd.ast.StarGroup` leaves.  Because
all ``Star`` operators are swallowed by the groups, the flattened model is
star-free and its position graph (the paper's ``DAG_x``) is acyclic.
"""

from __future__ import annotations

from typing import Union

from repro.dtd.ast import (
    Choice,
    ContentNode,
    Name,
    Opt,
    PCData,
    Plus,
    Seq,
    Star,
    StarGroup,
    fold,
    walk,
)
from repro.dtd.model import DTD, PCDATA

__all__ = ["StarGroup", "FlatNode", "find_star_groups", "flatten", "flattened_content"]


#: A flattened content model node: plain ``Seq``/``Choice`` structure over
#: ``Name`` occurrences and :class:`~repro.dtd.ast.StarGroup` leaves.
FlatNode = Union[Seq, Choice, Name, StarGroup]


def find_star_groups(node: ContentNode) -> list[ContentNode]:
    """Return the star-groups of a *normalized* content model, in document order.

    Star-groups are the outermost ``Star`` nodes (Definition 4): every
    ``Star`` either appears in the result or is a descendant of one that
    does.

    >>> from repro.dtd.parser import parse_content_spec
    >>> from repro.dtd.normalize import normalize_node
    >>> from repro.dtd.ast import to_text
    >>> model = normalize_node(parse_content_spec("(a, (b* | (c, d*, e)*))").model)
    >>> [to_text(group) for group in find_star_groups(model)]
    ['b*', '(c, d*, e)*']
    """
    groups: list[ContentNode] = []

    def down(current: ContentNode) -> bool | None:
        if isinstance(current, Star):
            groups.append(current)
            return False  # nested stars are subexpressions of this group
        return None

    fold(node, lambda current, results: None, down)
    return groups


def flatten(node: ContentNode) -> FlatNode:
    """Apply the Proposition 1 flattening, normalizing on the way.

    Each outermost ``e*`` (or ``e+``, which Corollary 3.1 normalizes to
    ``e*``) becomes a :class:`~repro.dtd.ast.StarGroup` over its member
    symbols; ``e?`` becomes ``e``; ``Seq``/``Choice`` structure outside
    star-groups is preserved; ``Name`` leaves pass through.  So
    ``flatten(normalize_node(r))`` and ``flatten(r)`` are equal.
    ``PCData`` cannot occur outside a star (XML only allows ``#PCDATA``
    in mixed content, which is starred), so encountering one is an
    internal error.
    """

    def up(current: ContentNode, results: list) -> FlatNode:
        if isinstance(current, (Star, Plus)):
            return StarGroup(frozenset(
                PCDATA if isinstance(symbol, PCData) else symbol.name
                for symbol in walk(current.item)
                if isinstance(symbol, (Name, PCData))
            ))
        if isinstance(current, Opt):
            return results[0]
        if isinstance(current, Name):
            return current
        if isinstance(current, (Seq, Choice)):
            return type(current)(tuple(results))
        if isinstance(current, PCData):
            raise AssertionError(
                "#PCDATA outside a star-group; content model was not mixed content"
            )
        raise AssertionError(f"unexpected node in flatten: {current!r}")

    return fold(node, up, lambda current: not isinstance(current, (Star, Plus)))  # type: ignore[return-value]


def flattened_content(dtd: DTD, name: str) -> FlatNode | None:
    """The flattened content model of *name* (``None`` for EMPTY)."""
    regex = dtd.content_regex(name)
    return None if regex is None else flatten(regex)
