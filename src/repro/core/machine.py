"""PVMachine: an exact recognizer for Problem ECPV.

The paper's ECRecognizer (Figure 5) is greedy: it merges hypotheses into a
single active-node set and commits to deep matches, which keeps it linear
but can lose alternatives (finding F-A1).  ``PVMachine`` decides the same
problem *exactly* by simulating the full nondeterministic machine with a
graph-structured stack (GSS).

GSS structure
-------------
Nodes represent facts about the current token round:

* a **consumption** node ``(element, position)`` — the round's token was
  consumed at that position of an (actual or hypothesized) ``element``;
* a **continuation** node ``(element, position)`` — that position is
  occupied by a hypothesized *missing* child element currently absorbing
  tokens; matching resumes here when the insertion closes;
* an **entry** node ``(element, ENTRY)`` — a freshly hypothesized missing
  element, about to absorb the round's token.

A node's *parents* are its stack continuations one level up; the bottom of
every stack is a shared sentinel.  Nodes with the same key within a round
**merge** (parent sets union) — consumption and continuation nodes are
keyed apart because they assign the round's token differently, and merging
them could fabricate inconsistent histories.

Merging is what keeps the machine polynomial *and* what makes it strictly
stronger than the paper's algorithm: a descend chain that re-reaches the
same entry node adds a parent edge instead of recursing, so PV-strong
recursion (Definition 7) shows up as a **cycle in the GSS** — a finite
representation of unboundedly deep insertion stacks.  The default machine
is therefore an exact, **unbounded** decider for every DTD class; no depth
bound is needed for termination.  (``depth=D`` selects the legacy chain
mode implementing the paper's Section 4.3.1 bounded semantics — used by
the depth-sensitivity tests and benchmarks; chain mode can be exponential
in ``D`` on recursive DTDs, merged mode never is.)

The machine runs on the **original** content models: ``*``/``+`` repetition
appears as ordinary Glushkov follow-loops.  That forgoes the
Corollary 3.1/Proposition 1 simplifications — which are only sound under
the paper's usability assumption — so the machine stays exact for arbitrary
DTDs, including ones with unproductive elements; skip/descend/acceptance
are guarded by productivity (``insertable``/``can_finish`` tables).

Acceptance after the last token requires some consumption node with a
root-ward path of silently-finishable nodes — for usable DTDs this is
automatic, recovering the paper's "stop anywhere" rule (Theorem 3).

Neither an insertion chain nor the GSS's height costs interpreter stack:
a round explores hypothesized elements' entry nodes from a worklist, and
acceptance is reachability of the bottom sentinel with one seen set.

Complexity positioning
----------------------
Exact potential validity is context-free-language recognition (Theorem 1),
so no exact recognizer can be linear in the adversarial case; the paper's
linear bound is bought by greediness (and the F-A1 over-acceptances).  The
merged machine allocates O(k) nodes per token, but on highly ambiguous
content (e.g. one node with hundreds of mixed-content children under a
recursive DTD) the GSS edge count grows with the token index and the
ancestor walk makes a round super-linear — the same regime where Earley
degrades.  For realistic documents — many nodes of small width — Problem
PV costs one machine run per node and is effectively linear in document
size, which is what benchmark E1 measures.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.config import MACHINE_NODE_LIMIT
from repro.core.dag import ENTRY, DtdDag, PositionTables, build_dag
from repro.dtd.analysis import DTDAnalysis
from repro.dtd.model import DTD, PCDATA
from repro.errors import PVError

__all__ = ["Node", "PVMachine"]


class Node:
    """One GSS node; see the module docstring."""

    __slots__ = (
        "element",
        "position",
        "parents",
        "sources",
        "nesting",
        "_parent_ids",
        "_source_ids",
    )

    def __init__(self, element: str | None, position: int, nesting: int = 0) -> None:
        self.element = element  # None marks the stack-bottom sentinel
        self.position = position
        #: Direct stack parents (one level up); final after the round ends.
        self.parents: list[Node] = []
        #: Frames whose (possibly still-growing) parent sets this node
        #: inherits; resolved into ``parents`` when the round is frozen.
        self.sources: list[Node] = []
        self.nesting = nesting  # chain mode only
        self._parent_ids: set[int] = set()
        self._source_ids: set[int] = set()

    @property
    def is_bottom(self) -> bool:
        return self.element is None

    def add_parent(self, parent: "Node") -> None:
        marker = id(parent)
        if marker not in self._parent_ids:
            self._parent_ids.add(marker)
            self.parents.append(parent)

    def add_source(self, frame: "Node") -> None:
        marker = id(frame)
        if marker not in self._source_ids:
            self._source_ids.add(marker)
            self.sources.append(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_bottom:
            return "Node(⊥)"
        where = "entry" if self.position == ENTRY else f"pos{self.position}"
        return f"Node({self.element}@{where})"


class PVMachine:
    """Exact ECPV recognizer for one element's content.

    Parameters
    ----------
    dag:
        ``DAG_T`` for the DTD (the machine uses its exact tables).
    element:
        The element whose content is being checked.
    depth:
        ``None`` (default) — exact unbounded decision via GSS merging.
        An integer ``D`` — the paper's bounded semantics: hypothesized
        missing-element nesting is cut at ``D`` (chain mode, no merging).
    """

    def __init__(self, dag: DtdDag, element: str, depth: int | None = None) -> None:
        self.dag_t = dag
        self.analysis: DTDAnalysis = dag.analysis
        self.element = element
        self.depth = depth
        self._merged = depth is None
        self._round_nodes: dict[tuple[str, str, int], Node] = {}
        # Per-round replay table: once a (element, position) frame key has
        # been matched against the round's token, further frames with the
        # same key contribute nothing new positionally — they only widen
        # the stack contexts.  Each key maps to (frames, targets); every
        # frame is a source of every target, maintained symmetrically so
        # registration order cannot drop pairs.  This keeps per-round match
        # work at O(distinct keys) = O(k) even when the reachable ancestor
        # graph is large.
        self._key_replay: dict[tuple[str, int], tuple[list[Node], list[Node]]] = {}
        self._fresh: list[Node] = []
        self._closure_cache: dict[tuple[str, int], frozenset[int]] = {}
        self._allocated = 0
        self._bottom = Node(None, ENTRY)
        root = self._new_node(element, ENTRY)
        root.parents.append(self._bottom)
        self.leaves: list[Node] = [root]
        self.rejected_at: int | None = None
        self._consumed = 0

    @classmethod
    def for_dtd(
        cls, dtd: DTD, element: str | None = None, depth: int | None = None
    ) -> "PVMachine":
        dag = build_dag(dtd)
        return cls(dag, element if element is not None else dtd.root, depth)

    def _tables(self, element: str) -> PositionTables:
        return self.dag_t.dag(element).exact_tables

    # -- node store -----------------------------------------------------------

    def _new_node(self, element: str, position: int, nesting: int = 0) -> Node:
        self._allocated += 1
        if self._allocated > MACHINE_NODE_LIMIT:
            raise PVError(
                "PVMachine exceeded its node allocation limit; "
                "use the default unbounded (merged) mode for this input"
            )
        return Node(element, position, nesting)

    def _round_node(
        self, tag: str, element: str, position: int
    ) -> tuple[Node, bool]:
        """Intern a (tag, element, position) node for the current round."""
        key = (tag, element, position)
        node = self._round_nodes.get(key)
        if node is None:
            node = self._new_node(element, position)
            self._round_nodes[key] = node
            self._fresh.append(node)
            return node, True
        return node, False

    # -- position closures -----------------------------------------------------

    def _silent_closure(self, element: str, position: int) -> frozenset[int]:
        """Positions eligible for the next match after *position*.

        Starts from the follow set (or the first set at ENTRY) and extends
        through positions that can be *silently* satisfied: productive
        elements (a synthesized complete subtree) and ``#PCDATA`` slots
        (an empty text run).  Star repetition needs no special case — a
        repeatable position follows itself in the Glushkov automaton.
        """
        key = (element, position)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        tables = self._tables(element)
        if tables.automaton is None:
            result: frozenset[int] = frozenset()
            self._closure_cache[key] = result
            return result
        start = set(tables.children(position))
        eligible = set(start)
        stack = [index for index in start if tables.insertable[index]]
        seen = set(stack)
        while stack:
            index = stack.pop()
            for successor in tables.children(index):
                if successor not in eligible:
                    eligible.add(successor)
                if tables.insertable[successor] and successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        result = frozenset(eligible)
        self._closure_cache[key] = result
        return result

    # -- token matching -------------------------------------------------------

    def _match_from(self, frame: Node, symbol: str, out: dict[int, Node]) -> None:
        """Consume *symbol* at (or below) *frame*'s eligible positions,
        exploring hypothesized elements' entry nodes from a worklist."""
        can_embed = self.analysis.can_embed
        worklist = [frame]
        while worklist:
            frame = worklist.pop()
            assert frame.element is not None
            if self._merged:
                key = (frame.element, frame.position)
                recorded = self._key_replay.get(key)
                if recorded is not None:
                    # Same positional exploration already done (or in
                    # progress) this round: the produced nodes are already
                    # in `out`/the store; this frame only contributes
                    # additional stack contexts.  Registering it here also
                    # covers targets that are appended later in the
                    # original exploration.
                    frames, targets = recorded
                    frames.append(frame)
                    for node in targets:
                        node.add_source(frame)
                    continue
                frames = [frame]
                targets = []
                self._key_replay[key] = (frames, targets)
            else:
                frames = [frame]
                targets = []
            tables = self._tables(frame.element)
            if tables.automaton is None:
                continue
            for index in self._silent_closure(frame.element, frame.position):
                position = tables.position(index)
                label = position.label
                assert label is not None  # exact automata have no group positions
                if label == symbol:
                    self._emit(frames, index, out, targets)
                if label != PCDATA and can_embed(label, symbol):
                    entry = self._descend(frames, index, label, targets)
                    if entry is not None:
                        worklist.append(entry)

    def _emit(
        self,
        frames: list[Node],
        index: int,
        out: dict[int, Node],
        targets: list[Node],
    ) -> None:
        """Record consumption at (element, index) for all *frames*' stacks."""
        frame = frames[0]
        assert frame.element is not None
        if self._merged:
            node, _created = self._round_node("leaf", frame.element, index)
            for registered in frames:
                node.add_source(registered)
            targets.append(node)
            out[id(node)] = node
        else:
            node = self._new_node(frame.element, index, frame.nesting)
            node.parents.extend(frame.parents)
            out[id(node)] = node

    def _descend(
        self,
        frames: list[Node],
        index: int,
        label: str,
        targets: list[Node],
    ) -> Node | None:
        """Hypothesize a missing <label> at position *index* of the frames;
        return its entry node if it is new and within the depth bound."""
        frame = frames[0]
        assert frame.element is not None
        if self._merged:
            continuation, _ = self._round_node("cont", frame.element, index)
            for registered in frames:
                continuation.add_source(registered)
            targets.append(continuation)
            child, created = self._round_node("entry", label, ENTRY)
            child.add_parent(continuation)
            return child if created else None
        assert self.depth is not None
        if frame.nesting + 1 > self.depth:
            return None
        continuation = self._new_node(frame.element, index, frame.nesting)
        continuation.parents.extend(frame.parents)
        child = self._new_node(label, ENTRY, frame.nesting + 1)
        child.parents.append(continuation)
        return child

    # -- round bookkeeping ---------------------------------------------------------

    def _freeze_round(self) -> None:
        """Resolve source-frame parent inheritance into direct parent lists.

        Leaf/continuation nodes copy their source frames' parents only once
        the round is over, so entry-node merges that happened *after* a
        node's creation are not lost.
        """
        for node in self._fresh:
            if node.sources:
                for frame in node.sources:
                    for parent in frame.parents:
                        node.add_parent(parent)
                node.sources = []
        self._fresh = []
        self._round_nodes = {}
        self._key_replay = {}

    # -- public stepping API ------------------------------------------------------

    def step(self, symbol: str) -> bool:
        """Feed one token; returns ``False`` when no hypothesis survives."""
        if self.rejected_at is not None:
            return False
        out: dict[int, Node] = {}
        explored: set[int] = set()
        for leaf in self.leaves:
            stack = [leaf]
            while stack:
                frame = stack.pop()
                marker = id(frame)
                if marker in explored:
                    continue
                explored.add(marker)
                self._match_from(frame, symbol, out)
                # Moving to a parent abandons this frame: its remaining
                # content must be silently completable.
                if self._tables(frame.element).finishable_from(frame.position):
                    for parent in frame.parents:
                        if not parent.is_bottom:
                            stack.append(parent)
        if self._merged:
            self._freeze_round()
        self.leaves = list(out.values())
        self._consumed += 1
        if not self.leaves:
            self.rejected_at = self._consumed - 1
            return False
        return True

    def accepts_now(self) -> bool:
        """Would stopping here be accepted? (A root-ward finishable path:
        any walk to the bottom through finishable nodes contains one.)"""
        if self.rejected_at is not None:
            return False
        stack = list(self.leaves)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node.is_bottom:
                return True
            marker = id(node)
            if marker in seen:
                continue
            seen.add(marker)
            if self._tables(node.element).finishable_from(node.position):
                stack.extend(node.parents)
        return False

    def recognize(self, symbols: Iterable[str]) -> bool:
        """Decide ECPV for the token sequence *symbols*."""
        for symbol in symbols:
            if not self.step(symbol):
                return False
        return self.accepts_now()

    def accepts(self, symbols: Sequence[str]) -> bool:
        """Alias of :meth:`recognize` mirroring the ECRecognizer API."""
        return self.recognize(symbols)

    @property
    def allocated_nodes(self) -> int:
        """Total GSS nodes allocated (benchmark instrumentation)."""
        return self._allocated
