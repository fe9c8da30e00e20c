"""Glushkov position automata for content models.

The Glushkov (position) construction turns a regular expression into an
NFA whose states are the expression's symbol *occurrences* (positions).
Two uses in this library:

* the **standard validator** builds the automaton of each element's
  *original* content model and simulates it over child labels — this
  decides ``D(T, r)`` membership per node;
* the **Section 4.2 DAG model** is exactly the position graph of the
  *normalized, star-group-flattened* content model: since flattening
  removes every ``*`` (star-groups become single leaf positions), the
  ``follow`` relation is acyclic there — the paper's ``DAG_x``.

Leaves may be :class:`~repro.dtd.ast.Name`, :class:`~repro.dtd.ast.PCData`
or :class:`~repro.dtd.ast.StarGroup`; the automaton labels positions
with the element name, the :data:`~repro.dtd.model.PCDATA` sentinel, or the
star-group member set respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dtd.ast import Choice, Name, Opt, PCData, Plus, Seq, Star, StarGroup, fold
from repro.dtd.model import PCDATA

__all__ = ["Position", "GlushkovAutomaton", "build_glushkov"]


@dataclass(frozen=True)
class Position:
    """One symbol occurrence in a content model.

    Attributes
    ----------
    index:
        Dense identifier (0-based, document order of the occurrence).
    label:
        The element name, :data:`~repro.dtd.model.PCDATA` for a ``#PCDATA``
        occurrence, or ``None`` for a star-group position.
    group:
        For star-group positions, the member symbol set (element names and
        possibly :data:`~repro.dtd.model.PCDATA`); ``None`` otherwise.
    """

    index: int
    label: str | None
    group: frozenset[str] | None = None

    @property
    def is_group(self) -> bool:
        return self.group is not None

    def matches_directly(self, symbol: str) -> bool:
        """True iff a token *symbol* is matched by this position label.

        For simple positions this is label equality (a ``#PCDATA`` position
        matches a sigma token because both use the same sentinel).  For
        star-group positions it is membership in the group.
        """
        if self.group is not None:
            return symbol in self.group
        return symbol == self.label


@dataclass(frozen=True)
class GlushkovAutomaton:
    """first/follow/last sets over content-model positions."""

    positions: tuple[Position, ...]
    first: frozenset[int]
    last: frozenset[int]
    follow: dict[int, frozenset[int]]
    nullable: bool

    def position(self, index: int) -> Position:
        return self.positions[index]

    @property
    def size(self) -> int:
        return len(self.positions)


def build_glushkov(node) -> GlushkovAutomaton:
    """Build the position automaton of a content model (or flattened model).

    >>> from repro.dtd.parser import parse_content_spec
    >>> auto = build_glushkov(parse_content_spec("(b?, (c | f), d)").model)
    >>> sorted(auto.positions[i].label for i in auto.first)
    ['b', 'c', 'f']
    >>> [auto.positions[i].label for i in sorted(auto.last)]
    ['d']
    """
    positions: list[Position] = []
    follow: dict[int, set[int]] = {}

    def connect(sources: frozenset[int], targets: frozenset[int]) -> None:
        for source in sources:
            follow[source].update(targets)

    def up(current, results: list) -> tuple[bool, frozenset[int], frozenset[int]]:
        """(nullable, first, last) of *current*, accumulating follow."""
        if isinstance(current, (Name, PCData, StarGroup)):
            index = len(positions)
            if isinstance(current, StarGroup):
                positions.append(Position(index, None, group=current.members))
            else:
                label = PCDATA if isinstance(current, PCData) else current.name
                positions.append(Position(index, label))
            follow[index] = set()
            singleton = frozenset((index,))
            return False, singleton, singleton
        if isinstance(current, Seq):
            nullable = True
            first: set[int] = set()
            last: set[int] = set()
            for item_nullable, item_first, item_last in results:
                connect(frozenset(last), item_first)
                if nullable:
                    first |= item_first
                if item_nullable:
                    last |= item_last
                else:
                    last = set(item_last)
                nullable = nullable and item_nullable
            return nullable, frozenset(first), frozenset(last)
        if isinstance(current, Choice):
            return (
                any(item[0] for item in results),
                frozenset().union(*[item[1] for item in results]),
                frozenset().union(*[item[2] for item in results]),
            )
        if isinstance(current, (Star, Plus)):
            item_nullable, item_first, item_last = results[0]
            connect(item_last, item_first)
            return isinstance(current, Star) or item_nullable, item_first, item_last
        if isinstance(current, Opt):
            return (True, *results[0][1:])
        raise TypeError(f"unexpected content node {current!r}")

    nullable, first, last = fold(node, up)
    return GlushkovAutomaton(
        positions=tuple(positions),
        first=first,
        last=last,
        follow={index: frozenset(targets) for index, targets in follow.items()},
        nullable=nullable,
    )
