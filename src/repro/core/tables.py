"""Dense integer transition tables for the verdict kernel.

The exact :class:`~repro.core.machine.PVMachine` walks dict-of-frozenset
Glushkov follow relations, interning labels as strings and consulting the
analysis' ``can_embed`` table per position per token.  This module compiles
all of that — once per :class:`~repro.service.compiled.CompiledSchema` —
into the densest structures CPython indexes fast:

* **interned tag ids** — every element name (plus the ``#PCDATA``/sigma
  sentinel) becomes a small integer, so the hot loop never compares
  strings;
* **flat ``array('l')`` maps** — per position: the interned label id and
  the element id a descend would hypothesize (``-1`` for ``#PCDATA``);
* **state sets as int bitmasks** — first/follow/silent-closure/can-finish
  sets become Python ints, so a token round is bitwise ``&`` plus a
  lowest-set-bit loop instead of set iteration.  Python ints are
  arbitrary-width, so automata with more than 63 positions work
  unchanged (covered by the bitmask-width tests).

The silent closures the machine computes lazily per checker instance are
precomputed here for *every* ``(element, position)`` pair, moving that
repeated cost into the one-time schema compile the registry amortizes.

Everything in this module is plain data (ints, arrays, dicts, tuples):
the tables pickle cheaply, ride inside the ring's ``put-artifact``
wire blobs and ``BatchChecker``'s worker pool, and are shared
read-only across threads and worker processes.  The one exception is the
kernel's runtime memo (:class:`KernelMemo`), which threads fill as they
check and which never pickles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from threading import Lock

from repro.core.dag import ENTRY, DtdDag, PositionTables
from repro.dtd.model import PCDATA

__all__ = ["ElementTables", "CompiledTables", "KernelMemo", "compile_tables"]


@dataclass(frozen=True)
class ElementTables:
    """One element's content automaton in dense form.

    Positions are the exact (original content model) Glushkov positions;
    bit ``i`` of every mask refers to position ``i``.  ``closures[0]`` is
    the ENTRY closure (nothing consumed yet); ``closures[i + 1]`` belongs
    to position ``i`` — the ``+ 1`` slot shift keeps the virtual ENTRY
    position (index ``-1``) addressable without a dict.

    Attributes
    ----------
    element_id:
        The interned id of this element (its index in
        :attr:`CompiledTables.elements`).
    size:
        Number of automaton positions (0 for ``EMPTY`` content).
    closures:
        Per ``(position + 1)``: the silent-completion closure as a
        bitmask — every position eligible to match the next token.
    match_masks:
        Per interned symbol id: the positions whose label *is* that
        symbol.  Missing ids match nowhere.
    embed_masks:
        Per interned symbol id: the positions whose (element) label can
        embed that symbol somewhere strictly inside an inserted subtree —
        the descend candidates.  Missing ids descend nowhere.
    pos_label / pos_elem:
        Flat per-position maps: the interned label id, and the element id
        a descend at the position would hypothesize (``-1`` for
        ``#PCDATA`` positions, which are never descended into).
    fin_mask:
        Positions from which the rest of the content model is silently
        completable (the machine's ``can_finish`` as one int).
    entry_fin:
        ``can_finish`` for the virtual ENTRY position.
    """

    element_id: int
    size: int
    closures: tuple[int, ...]
    match_masks: dict[int, int]
    embed_masks: dict[int, int]
    pos_label: array
    pos_elem: array
    fin_mask: int
    entry_fin: bool


class KernelMemo(dict):
    """A schema's runtime kernel memo: a dict plus the bytes charged to it.

    The kernel stores emission entries and interned states here and adds
    what each costs to ``charged`` under ``lock``, since the threads that
    check one schema share its memo; it clears the memo when a store
    would pass its entry or byte bound.  A clear zeroes the charge.
    """

    __slots__ = ("charged", "lock")

    def __init__(self) -> None:
        super().__init__()
        self.charged = 0
        self.lock = Lock()

    def clear(self) -> None:
        super().clear()
        self.charged = 0


@dataclass(frozen=True)
class CompiledTables:
    """All per-element tables plus the interned symbol space.

    Attributes
    ----------
    symbols:
        Interned symbol names: element names in declaration order, then
        the ``#PCDATA`` sentinel last.  ``symbols[i]`` has id ``i``.
    sid:
        The reverse map, name → id.  Tokens not in it (undeclared
        elements in a document) have no transitions anywhere.
    elements:
        Per element id: that element's :class:`ElementTables`.
    sigma_id:
        The id of the ``#PCDATA``/sigma sentinel.
    root_id:
        The id of the DTD's designated root element.
    emissions:
        The one runtime-only :class:`KernelMemo` of the kernel over these
        tables.  It holds two kinds of entry, both document-independent:
        a packed ``(element, position, symbol)`` int → that key's
        emission lists (match indices, descend ``(index, child)`` pairs),
        and a configuration code (a negative int when flat, else bytes)
        → its interned :class:`~repro.core.kernel.KernelState`.  States
        are keyed by whole configurations, so the kernel clears the memo
        when a store finds :data:`~repro.core.kernel.EMISSIONS_LIMIT`
        entries or would pass
        :data:`~repro.core.kernel.EMISSIONS_BYTES_LIMIT` bytes charged.
        Never pickled (artifacts stay deterministic), starts empty in
        every unpickling process.
    """

    symbols: tuple[str, ...]
    sid: dict[str, int] = field(repr=False)
    elements: tuple[ElementTables, ...] = field(repr=False)
    sigma_id: int
    root_id: int
    emissions: KernelMemo = field(
        default_factory=KernelMemo, repr=False, compare=False
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["emissions"] = {}
        return state

    def __setstate__(self, state):
        state["emissions"] = KernelMemo()
        self.__dict__.update(state)

    def element(self, name: str) -> ElementTables:
        """The tables of element *name* (KeyError for undeclared names)."""
        return self.elements[self.sid[name]]

    @property
    def total_positions(self) -> int:
        """Total automaton positions across all elements (≈ the paper's k)."""
        return sum(tables.size for tables in self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTables({len(self.elements)} element(s), "
            f"{self.total_positions} position(s))"
        )


def _silent_closures(tables: PositionTables, size: int) -> list[int]:
    """Every silent closure of one automaton as a bitmask, ENTRY's first.

    A position's closure is its follow set plus the follow set of every
    insertable position reachable from it through insertable positions
    only: the positions the machine's ``_silent_closure`` makes eligible
    for the next token.  One pass computes them all.  Each insertable
    position's *reach* (its follow mask OR its insertable successors'
    reach) is shared by its strongly connected component of the follow
    graph restricted to insertable positions; Tarjan's algorithm, run
    with an explicit stack, finishes the components in reverse
    topological order, so each component's reach is one union over
    reaches already known.  A closure is then its follow mask OR the
    reach of each insertable successor.
    """
    if tables.automaton is None:
        return [0]
    insertable = tables.insertable
    follow = [_mask(tables.children(index)) for index in range(size)]
    silent = [
        [succ for succ in tables.children(index) if insertable[succ]]
        if insertable[index]
        else []
        for index in range(size)
    ]
    reach = [0] * size
    order = [-1] * size  # Tarjan's discovery index; -1 = unvisited
    low = [0] * size
    on_stack = [False] * size
    component: list[int] = []
    visited = 0
    for root in range(size):
        if not insertable[root] or order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        component.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            node, edge = work[-1]
            if edge < len(silent[node]):
                work[-1] = (node, edge + 1)
                succ = silent[node][edge]
                if order[succ] < 0:
                    order[succ] = low[succ] = visited
                    visited += 1
                    component.append(succ)
                    on_stack[succ] = True
                    work.append((succ, 0))
                elif on_stack[succ]:
                    low[node] = min(low[node], order[succ])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] != order[node]:
                continue
            # *node* roots a finished component: every component it
            # reaches finished before it, so their reach is final, and
            # members' reach (still 0) adds nothing to the union.
            members = []
            while True:
                member = component.pop()
                on_stack[member] = False
                members.append(member)
                if member == node:
                    break
            mask = 0
            for member in members:
                mask |= follow[member]
                for succ in silent[member]:
                    mask |= reach[succ]
            for member in members:
                reach[member] = mask

    def closure(position: int, mask: int) -> int:
        for succ in tables.children(position):
            if insertable[succ]:
                mask |= reach[succ]
        return mask

    closures = [closure(ENTRY, _mask(tables.children(ENTRY)))]
    for index in range(size):
        closures.append(closure(index, follow[index]))
    return closures


def _mask(indices) -> int:
    result = 0
    for index in indices:
        result |= 1 << index
    return result


def compile_tables(dag: DtdDag) -> CompiledTables:
    """Compile ``DAG_T``'s exact automata into dense kernel tables."""
    dtd = dag.dtd
    analysis = dag.analysis
    names = tuple(dtd.element_names())
    symbols = names + (PCDATA,)
    sid = {name: index for index, name in enumerate(symbols)}
    sigma_id = sid[PCDATA]

    elements: list[ElementTables] = []
    for name in names:
        element_id = sid[name]
        tables = dag.dag(name).exact_tables
        automaton = tables.automaton
        size = automaton.size if automaton is not None else 0

        closures = _silent_closures(tables, size)

        pos_label = array("l")
        pos_elem = array("l")
        match_masks: dict[int, int] = {}
        embed_masks: dict[int, int] = {}
        for index in range(size):
            position = automaton.position(index)
            label = position.label
            assert label is not None  # exact automata have no group positions
            label_id = sid[label]
            pos_label.append(label_id)
            pos_elem.append(-1 if label == PCDATA else label_id)
            match_masks[label_id] = match_masks.get(label_id, 0) | (1 << index)
            if label != PCDATA:
                for target in analysis.embed_reach.get(label, frozenset()):
                    target_id = sid.get(target)
                    if target_id is None:
                        continue
                    embed_masks[target_id] = (
                        embed_masks.get(target_id, 0) | (1 << index)
                    )

        fin_mask = _mask(
            index for index in range(size) if tables.can_finish[index]
        )
        elements.append(
            ElementTables(
                element_id=element_id,
                size=size,
                closures=tuple(closures),
                match_masks=match_masks,
                embed_masks=embed_masks,
                pos_label=pos_label,
                pos_elem=pos_elem,
                fin_mask=fin_mask,
                entry_fin=tables.entry_can_finish,
            )
        )

    return CompiledTables(
        symbols=symbols,
        sid=sid,
        elements=tuple(elements),
        sigma_id=sigma_id,
        root_id=sid[dtd.root],
    )
