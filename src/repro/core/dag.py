"""The Section 4.2 DAG model of a DTD.

For each element ``x`` the paper builds ``DAG_x``: a rooted directed acyclic
graph whose non-root nodes are *simple element nodes* (one per element
occurrence outside any star-group) and *star-group nodes* (one per
star-group), with edges joining each node to the adjacent (comma-separated)
nodes and ``|`` introducing branching.  Any root-to-leaf path spells a
production alternative of ``X̂``.

This is precisely the Glushkov position graph of the normalized
(Corollary 3.1) and star-group-flattened (Proposition 1) content model:

* ``children(root)`` = the automaton's *first* set,
* ``children(n)``    = the *follow* set of ``n``'s position,
* acyclicity follows because flattening leaves no ``*`` operators — each
  star-group is a single (self-absorbing) leaf position.

The paper stores one small graph per element instead of a single expanded
graph, and "plugs in" ``DAG_y`` on demand during deep search; we mirror that
by keeping per-element automata in one :class:`DtdDag` collection.

The machine layer additionally needs completion metadata the paper's
usability assumption hides: which positions can be *silently inserted*
(a complete valid subtree synthesized from nothing — requires a productive
element) and from which positions the remainder of the content model is
completable (:attr:`ElementDag.can_finish`).  With every element usable,
all of these are trivially true, matching the paper.

Two automata per element
------------------------
Corollary 3.1 (drop ``?``, ``+`` to ``*``) and Proposition 1 (star-group
flattening) are proved **under the usability assumption** — with
unproductive elements ``(dead?, ok)`` and ``(dead, ok)`` have different PV
languages.  So each :class:`ElementDag` carries

* the *flattened* automaton (normalized + star-grouped): the paper's
  ``DAG_x``, consumed by the faithful Figure-5 ECRecognizer, and
* the *exact* automaton, built from the **original** content model, where
  ``*``/``+`` loops appear as ordinary Glushkov follow edges: consumed by
  the exact PVMachine, correct for arbitrary DTDs.

For usable DTDs the two give identical verdicts (property-tested), which is
precisely the empirical content of Corollary 3.1 / Proposition 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.dtd.analysis import DTDAnalysis, analyze
from repro.dtd.model import DTD, PCDATA
from repro.dtd.stargroups import flattened_content
from repro.grammar.glushkov import GlushkovAutomaton, Position, build_glushkov

__all__ = ["ElementDag", "DtdDag", "build_dag"]

#: Pseudo-position index for "at the root, nothing consumed yet".
ENTRY: int = -1


@dataclass(frozen=True)
class PositionTables:
    """One content-model automaton plus its silent-completion metadata.

    Attributes
    ----------
    automaton:
        The Glushkov automaton, or ``None`` for ``EMPTY`` content.
    insertable:
        Per-position: may the position be satisfied *silently*, i.e. without
        consuming any document token?  Star-groups and ``#PCDATA`` always
        can; a simple element position can iff its element is productive.
    can_finish:
        Per-position: once this position has just been matched, can the rest
        of the content model be satisfied using silent insertions only?
        Used by exact acceptance; trivially all-true for usable DTDs.
    entry_can_finish:
        ``can_finish`` for the virtual entry position (nothing consumed).
    """

    automaton: GlushkovAutomaton | None
    insertable: tuple[bool, ...]
    can_finish: tuple[bool, ...]
    entry_can_finish: bool

    def root_children(self) -> frozenset[int]:
        """``children(root)``: the first positions."""
        if self.automaton is None:
            return frozenset()
        return self.automaton.first

    def children(self, index: int) -> frozenset[int]:
        """``children(n)``: the follow positions of *index* (ENTRY = root)."""
        if self.automaton is None:
            return frozenset()
        if index == ENTRY:
            return self.automaton.first
        return self.automaton.follow[index]

    def position(self, index: int) -> Position:
        assert self.automaton is not None
        return self.automaton.position(index)

    def finishable_from(self, index: int) -> bool:
        """``can_finish`` with the ENTRY pseudo-position handled."""
        if index == ENTRY:
            return self.entry_can_finish
        return self.can_finish[index]


@dataclass(frozen=True)
class ElementDag(PositionTables):
    """``DAG_x``: the paper's flattened position graph, plus the exact tables.

    The inherited fields are the *flattened* (Cor 3.1 + Prop 1) model — the
    paper's ``DAG_x`` consumed by the Figure-5 ECRecognizer.  ``exact``
    carries the original-model automaton consumed by the PVMachine.
    """

    element: str = ""
    exact: PositionTables | None = None

    @property
    def exact_tables(self) -> PositionTables:
        assert self.exact is not None
        return self.exact


class DtdDag:
    """``DAG_T``: the union of all per-element DAGs, plus shared analysis."""

    __slots__ = ("dtd", "analysis", "_dags")

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.analysis: DTDAnalysis = analyze(dtd)
        self._dags: dict[str, ElementDag] = {
            name: _build_element_dag(dtd, name, self.analysis)
            for name in dtd.element_names()
        }

    def dag(self, element: str) -> ElementDag:
        """``DAG_x`` for element *element*."""
        return self._dags[element]

    def __iter__(self):
        return iter(self._dags.values())

    def total_positions(self) -> int:
        """Total position count across all element DAGs (≈ the paper's k)."""
        return sum(
            dag.automaton.size for dag in self if dag.automaton is not None
        )


def _position_insertable(position: Position, productive: frozenset[str]) -> bool:
    if position.is_group:
        return True
    if position.label == PCDATA:
        return True  # an empty text run satisfies a #PCDATA slot silently
    assert position.label is not None
    return position.label in productive


def _build_tables(
    model, analysis: DTDAnalysis
) -> PositionTables:
    """Glushkov automaton + insertable/can_finish tables for one model."""
    if model is None:
        return PositionTables(
            automaton=None, insertable=(), can_finish=(), entry_can_finish=True
        )
    automaton = build_glushkov(model)
    insertable = tuple(
        _position_insertable(position, analysis.productive)
        for position in automaton.positions
    )
    # can_finish: the least fixpoint, settled backward from ``last`` by a
    # worklist over reversed follow edges (cyclic on the exact automaton).
    can_finish = [index in automaton.last for index in range(automaton.size)]
    predecessors: dict[int, list[int]] = {}
    for index, successors in automaton.follow.items():
        if not can_finish[index]:
            for successor in successors:
                if insertable[successor]:
                    predecessors.setdefault(successor, []).append(index)
    pending = [index for index in predecessors if can_finish[index]]
    while pending:
        for index in predecessors.get(pending.pop(), ()):
            if not can_finish[index]:
                can_finish[index] = True
                if insertable[index]:
                    pending.append(index)
    entry_can_finish = automaton.nullable or any(
        insertable[index] and can_finish[index] for index in automaton.first
    )
    return PositionTables(
        automaton=automaton,
        insertable=insertable,
        can_finish=tuple(can_finish),
        entry_can_finish=entry_can_finish,
    )


def _build_element_dag(dtd: DTD, name: str, analysis: DTDAnalysis) -> ElementDag:
    flattened = _build_tables(flattened_content(dtd, name), analysis)
    exact = _build_tables(dtd.content_regex(name), analysis)
    return ElementDag(
        automaton=flattened.automaton,
        insertable=flattened.insertable,
        can_finish=flattened.can_finish,
        entry_can_finish=flattened.entry_can_finish,
        element=name,
        exact=exact,
    )


@lru_cache(maxsize=128)
def build_dag(dtd: DTD) -> DtdDag:
    """Build (and memoise) ``DAG_T`` for *dtd*."""
    return DtdDag(dtd)
