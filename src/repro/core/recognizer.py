"""The ECRecognizer algorithm — a faithful transcription of Figure 5.

The recognizer decides Problem ECPV for one element: given the element's
children token sequence (the ``Delta_T`` output — element names and sigma),
``recognize()`` answers "accept"/"reject".

Faithfulness notes (line numbers refer to Figure 5):

* ``activeNodesSet`` is a position-keyed ordered set.  When a node is
  removed and its children appended (line 34-35, the *skip* case) the
  children are examined **in the same round** — that is how the published
  traces (Figure 6) walk past non-matching nodes for the current symbol.
  When a node matches directly (line 29-33) its children are *prepended*,
  i.e. become active for the **next** symbol only.
* Each active node caches one sub-recognizer (``n.recognizer``, line 24-25)
  created on first deep search into a missing element, with ``depth - 1``;
  deep search is attempted only while ``depth > 0`` (line 26) — the
  paper's fix for the Figure 7 infinite loop on PV-strong recursive DTDs.
  The nested call keeps the figure's shape but yields the sub-recognizer's
  frame (:func:`~repro.core.trampoline.trampoline`), so nesting as deep as
  ``D`` costs no interpreter stack.
* The reachability test is the paper's lookup table ``LT`` (Definition 5):
  ``lookup(x, element(n))`` asks whether token ``x`` is reachable *from*
  ``element(n)`` in ``R_T`` (Example 4 notes ``b`` is absent from the
  lookup table of ``b`` for non-recursive DTDs).
* Acceptance never requires exhausting the content model: by Theorem 3 any
  unmatched remainder derives epsilon (for usable DTDs).  ``recognize``
  rejects at the first symbol whose ``validate`` round fails.

Verbatim vs refined mode
------------------------
Transcribed literally, Figure 5 *over-accepts* in one specific situation:
after a node's sub-recognizer has consumed tokens (a "missing element"
hypothesis occupying that DAG position), a later token equal to the node's
own element still direct-matches at line 29 — but the position is already
spent.  E.g. for the Figure 1 DTD, content ``d b`` of element ``a`` is not
potentially valid, yet the verbatim algorithm accepts it.  The paper's own
Example 4 prose hints at node-retirement rules the pseudocode omits
("``f`` is removed from the active node set as its last element was
matched").  ``mode="refined"`` adds the two rules consistent with that
prose:

1. a node whose sub-recognizer has consumed at least one symbol no longer
   direct-matches (the position is occupied by the hypothesized missing
   element);
2. when a sub-recognizer's active set empties after an accepted symbol,
   its node is retired (children prepended) — it can absorb nothing more;
3. an occupied node and a fresh node at the same position are different
   hypotheses, so the skip path (line 35) appends a fresh child even
   while an occupied node holds its position.

``mode="verbatim"`` keeps the published behaviour; the differential tests
pin both (see EXPERIMENTS.md, finding F-A1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.config import DEFAULT_DEPTH_BOUND
from repro.core.dag import DtdDag, ElementDag, build_dag
from repro.core.trampoline import trampoline
from repro.dtd.analysis import DTDAnalysis
from repro.dtd.model import DTD, PCDATA
from repro.grammar.glushkov import Position

__all__ = ["ECRecognizer"]

_ACCEPT = "accept"
_REJECT = "reject"


class _ActiveNode:
    """One entry of ``activeNodesSet``: a DAG position plus its cached
    sub-recognizer (Figure 5 line 24)."""

    __slots__ = ("index", "recognizer")

    def __init__(self, index: int) -> None:
        self.index = index
        self.recognizer: ECRecognizer | None = None


class ECRecognizer:
    """Figure 5's ``class ECRecognizer`` for one element's content.

    Parameters
    ----------
    dag:
        ``DAG_T`` (built once per DTD via :func:`repro.core.dag.build_dag`).
    element:
        The element whose content is recognized (constructor argument ``e``).
    depth:
        The document-depth budget ``d``; each nested recognizer receives
        ``depth - 1`` and deep search stops when the budget is exhausted.
    """

    def __init__(
        self,
        dag: DtdDag,
        element: str,
        depth: int,
        mode: str = "refined",
    ) -> None:
        if mode not in ("refined", "verbatim"):
            raise ValueError(f"mode must be 'refined' or 'verbatim', not {mode!r}")
        self.dag_t = dag
        self.depth = depth
        self.mode = mode
        self.lookup_table: DTDAnalysis = dag.analysis
        self.element = element
        self._dag: ElementDag = dag.dag(element)
        #: Number of symbols this recognizer has accepted (refined rule 1).
        self.consumed = 0
        # Line 8: append children(r) to activeNodesSet.
        self.active: list[_ActiveNode] = [
            _ActiveNode(index) for index in sorted(self._dag.root_children())
        ]

    # -- convenience constructors -------------------------------------------

    @classmethod
    def for_dtd(
        cls,
        dtd: DTD,
        element: str | None = None,
        depth: int = DEFAULT_DEPTH_BOUND,
        mode: str = "refined",
    ) -> "ECRecognizer":
        """Build ``DAG_T`` (memoised) and return a recognizer for *element*."""
        dag = build_dag(dtd)
        return cls(dag, element if element is not None else dtd.root, depth, mode=mode)

    # -- Figure 5 ------------------------------------------------------------

    def validate(self, symbol: str) -> str:
        """Figure 5 lines 10-37: match one input symbol, return accept/reject."""
        return trampoline(self._validate(symbol))

    def _validate(self, symbol: str) -> Iterator:
        """:meth:`validate` as a frame that yields the nested recognizer's
        frame of a missing element (lines 23-28)."""
        dag = self._dag
        lookup = self.lookup_table.lookup
        result = _REJECT

        active = self.active
        refined = self.mode == "refined"

        def key(node: _ActiveNode) -> tuple[int, bool]:
            """A node's hypothesis: its position, and (refined mode only)
            whether a consuming sub-recognizer occupies it.  An occupied
            and a fresh node at one position are different hypotheses,
            so neither deduplicates the other."""
            occupied = (
                refined
                and node.recognizer is not None
                and node.recognizer.consumed > 0
            )
            return node.index, occupied

        present: set[tuple[int, bool]] = {key(node) for node in active}
        next_round: list[_ActiveNode] = []
        next_present: set[int] = set()

        def append_children(of_index: int) -> None:
            """Line 35: append children(n) — examined later this round."""
            for child in sorted(dag.children(of_index)):
                if (child, False) not in present:
                    present.add((child, False))
                    active.append(_ActiveNode(child))

        def prepend_children(of_index: int) -> None:
            """Line 32: pre-pend children(n) — active from the next symbol.

            Deduplicate only against nodes already queued for the next
            round: a same-position node still active in *this* round may be
            about to die on the current symbol (skip path), and the match
            hypothesis must not be robbed of the position when it does.
            """
            for child in sorted(dag.children(of_index)):
                if child not in next_present:
                    next_present.add(child)
                    next_round.append(_ActiveNode(child))

        cursor = 0
        while cursor < len(active):
            node = active[cursor]
            node_key = key(node)
            position: Position = dag.position(node.index)
            if position.is_group:
                # Lines 13-21: star-group nodes.
                matched = False
                assert position.group is not None
                for member in position.group:
                    if symbol == member or lookup(member, symbol):
                        matched = True
                        break
                if matched:
                    result = _ACCEPT
                    cursor += 1  # node stays active (line 21 continue)
                    continue
            else:
                # Lines 23-28: deep search into a missing element.
                label = position.label
                assert label is not None and label != PCDATA
                if lookup(label, symbol):
                    if node.recognizer is None:
                        node.recognizer = ECRecognizer(
                            self.dag_t, label, self.depth - 1, mode=self.mode
                        )
                    if (
                        node.recognizer.depth > 0
                        and (yield node.recognizer._validate(symbol)) == _ACCEPT
                    ):
                        node.recognizer.consumed += 1
                        result = _ACCEPT
                        if self.mode == "refined" and not node.recognizer.active:
                            # Refined rule 2 (Example 4 prose): the missing
                            # element matched its last content — retire it.
                            present.discard(node_key)
                            del active[cursor]
                            prepend_children(node.index)
                            continue
                        cursor += 1  # node stays active (line 28 continue)
                        continue
                # Lines 29-33: direct match.  Refined rule 1: a position
                # occupied by a consuming missing-element hypothesis cannot
                # also be matched directly.
                if label == symbol and not node_key[1]:
                    result = _ACCEPT
                    present.discard(node_key)
                    del active[cursor]
                    prepend_children(node.index)
                    continue
            # Lines 34-35: no match here — skip the node, try its children
            # for the *same* symbol.
            present.discard(node_key)
            del active[cursor]
            append_children(node.index)

        # Survivors of this round plus match-children become the next round's
        # active set; prepended children go first (document-order priority).
        self.active = next_round + active
        return result

    def recognize(self, symbols: Iterable[str]) -> str:
        """Figure 5 lines 38-43: validate each symbol, reject on first failure."""
        for symbol in symbols:
            if self.validate(symbol) == _REJECT:
                return _REJECT
        return _ACCEPT

    def accepts(self, symbols: Sequence[str]) -> bool:
        """Boolean convenience wrapper over :meth:`recognize`."""
        return self.recognize(symbols) == _ACCEPT
