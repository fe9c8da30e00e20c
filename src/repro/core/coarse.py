"""The coarse filter: a tiny per-schema summary and a linear pass.

The exact backends decide Problem PV precisely, but most real traffic does
not need them: a corrupt document usually violates a *cheap necessary
condition* (an undeclared tag, an impossible parent/child pair, a child
count no completable content can reach), and a trivially valid document
often satisfies a *cheap sufficient condition* (every node's children
already spell a word of its content model).  :func:`compile_coarse`
derives both condition sets from the compiled DAG once per schema, and
:class:`CoarseChecker` applies them in one linear pass over a document,
returning one of three outcomes:

* ``"reject"`` — a necessary condition failed: **no** exact backend can
  accept this document, and the verdict names the same element the full
  check would fail on.
* ``"accept"`` — a sufficient condition held at every node: every exact
  backend accepts this document.
* ``"uncertain"`` — neither; the document must escalate to a full
  backend.

The summary is deliberately tiny — a name table plus per-element integer
bitmasks and a few small dicts, a few hundred bytes pickled — so it can
ride inside artifacts (format version 3), be fetched over the wire
(``get-coarse``), and be cached client-side per fingerprint.

Soundness notes
---------------
The parent→child pair filter uses the **embed-reachability** relation of
Definition 5 (``DTDAnalysis.embed_reach``), *not* direct syntactic
reference: tag insertions may wrap an existing child under a chain of
inserted elements, so a token is only impossible inside ``x`` when no
insertion chain from ``x`` embeds it.  The child-count intervals are
``[0, max]``: insertions can only *add* tokens, so a lower bound on the
original content is always 0, while the upper bound is the maximum number
of equal tokens any completable content of the element can embed (computed
by a fixpoint over the content models, with unbounded counts omitted).
A text run never *requires* insertions — an empty run satisfies any
``#PCDATA`` slot silently — so the gap hints only record where character
data is legal (directly, or only via wrapping).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.core.dag import DtdDag
from repro.dtd.ast import Choice, ContentNode, Name, Opt, PCData, Seq, fold
from repro.dtd.model import PCDATA, AnyContent, MixedContent
from repro.xmlmodel.delta import SIGMA
from repro.xmlmodel.tree import XmlDocument, XmlElement

__all__ = [
    "COUNT_CAP",
    "CoarseSummary",
    "CoarseVerdict",
    "CoarseChecker",
    "compile_coarse",
    "encode_coarse",
    "decode_coarse",
]

#: Child-count upper bounds above this are treated as unbounded and not
#: stored: a bound that large never rejects real documents, and capping
#: keeps the count fixpoint small.  Raising the cap only *adds* reject
#: power; it never changes a verdict from reject to accept.
COUNT_CAP = 64

#: Internal sentinel for "unbounded" inside the count fixpoint.
_INF = COUNT_CAP + 1


@dataclass(frozen=True)
class CoarseVerdict:
    """One coarse outcome: ``accept`` / ``reject`` / ``uncertain``.

    ``path``/``element`` pinpoint the node a ``reject`` is about (the same
    node the exact backends fail on) or, for ``uncertain``, the first node
    the linear pass could not decide; ``reason`` is human-readable.
    """

    outcome: str
    path: str = ""
    element: str = ""
    reason: str = ""

    @property
    def definite(self) -> bool:
        """True for ``accept``/``reject`` — no full backend needed."""
        return self.outcome != "uncertain"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" at {self.path} <{self.element}>" if self.path else ""
        return f"{self.outcome}{where}: {self.reason}" if self.reason else self.outcome


class CoarseSummary:
    """The per-schema coarse summary (the coarse pass's whole input).

    Tokens are interned: bit ``i`` is ``names[i]`` for declared elements,
    and bit ``len(names)`` is the character-data token (``#PCDATA``).
    All per-element tables are indexed by the element's position in
    ``names``.

    Attributes
    ----------
    root:
        The DTD's designated root element.
    names:
        Declared element names, in declaration order (the bit order).
    allowed:
        Per element: bitmask of tokens some insertion chain can embed in
        its content (embed-reachability, Definition 5).  A child token
        outside this mask is a definite reject.
    accepts:
        Per element: bitmask of tokens over which *any* sequence is
        already a word of the content model (mixed/``ANY`` star sets).
        A child sequence inside this mask is a definite node accept.
    counts:
        Per element: ``{token bit: max}`` for tokens whose embeddable
        count is finite (≤ :data:`COUNT_CAP`).  Exceeding a max is a
        definite reject; absent tokens are unbounded.
    totals:
        Per element: the finite maximum *total* child-token count, or
        ``None`` when unbounded.
    empty_ok:
        Bitmask over elements whose empty content completes by silent
        insertions alone (childless node accept/reject pivot).
    gap_direct:
        Bitmask over elements where character data is *directly* legal
        (mixed/``ANY`` content).  The remaining gap-legal elements
        (``allowed`` has the ``#PCDATA`` bit, ``gap_direct`` does not)
        need the gap wrapped under inserted elements.
    """

    __slots__ = (
        "root",
        "names",
        "allowed",
        "accepts",
        "counts",
        "totals",
        "empty_ok",
        "gap_direct",
        "_index",
    )

    def __init__(
        self,
        root: str,
        names: tuple[str, ...],
        allowed: tuple[int, ...],
        accepts: tuple[int, ...],
        counts: tuple[dict[int, int], ...],
        totals: tuple[int | None, ...],
        empty_ok: int,
        gap_direct: int,
    ) -> None:
        self.root = root
        self.names = names
        self.allowed = allowed
        self.accepts = accepts
        self.counts = counts
        self.totals = totals
        self.empty_ok = empty_ok
        self.gap_direct = gap_direct
        self._index = {name: bit for bit, name in enumerate(names)}

    @property
    def pcdata_bit(self) -> int:
        return len(self.names)

    def element_bit(self, name: str) -> int | None:
        """The bit index of element *name*, or ``None`` if undeclared."""
        return self._index.get(name)

    def token_bit(self, token: str) -> int | None:
        """The bit index of a ``Delta_T`` token (element name or SIGMA)."""
        if token == SIGMA:
            return len(self.names)
        return self._index.get(token)

    # -- pickling (the index is derived; keep the payload minimal) ---------

    def __getstate__(self):
        return {
            "root": self.root,
            "names": self.names,
            "allowed": self.allowed,
            "accepts": self.accepts,
            "counts": self.counts,
            "totals": self.totals,
            "empty_ok": self.empty_ok,
            "gap_direct": self.gap_direct,
        }

    def __setstate__(self, state) -> None:
        self.__init__(**state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoarseSummary):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoarseSummary(root={self.root!r}, elements={len(self.names)}, "
            f"bytes~{len(encode_coarse(self))})"
        )


def encode_coarse(summary: CoarseSummary) -> bytes:
    """*summary* as transportable bytes (the ``get-coarse`` payload)."""
    return pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)


def decode_coarse(blob: bytes) -> CoarseSummary | None:
    """Decode :func:`encode_coarse` bytes; ``None`` on any defect."""
    try:
        summary = pickle.loads(blob)
    except Exception:
        return None
    if not isinstance(summary, CoarseSummary):
        return None
    return summary


# -- compilation -----------------------------------------------------------


def _weight_program(regex: ContentNode | None) -> list:
    """*regex* in postorder, recorded once by :func:`~repro.dtd.ast.fold` and
    replayed by every fixpoint round: a leaf's symbol (an element name or
    :data:`PCDATA`), or an inner node's ``(type, child count)``."""
    program: list = []

    def record(node: ContentNode, results: list) -> None:
        if isinstance(node, (Name, PCData)):
            program.append(PCDATA if isinstance(node, PCData) else node.name)
        else:
            program.append((type(node), len(results)))

    if regex is not None:
        fold(regex, record)
    return program


def _max_weight(program: list, weight: dict[str, int]) -> int:
    """Max total *weight* over any word of *program*'s language (capped).

    ``weight`` maps each symbol (element name or :data:`PCDATA`) to its
    per-occurrence contribution; star/plus over any positive weight is
    unbounded (:data:`_INF`).  Sums saturate at :data:`_INF`.
    """
    values: list[int] = []
    for entry in program:
        if entry.__class__ is str:
            values.append(weight[entry])
            continue
        kind, count = entry
        if kind is Seq or kind is Choice:
            items = values[-count:]
            del values[-count:]
            values.append(min(sum(items), _INF) if kind is Seq else max(items))
        elif kind is not Opt and values[-1] > 0:
            values[-1] = _INF  # e* or e+ over a positive weight
    return values[-1] if values else 0


def _embed_capacity(programs: dict[str, list], target: str | None) -> dict[str, int]:
    """Per element: the most *target* tokens any completable content embeds.

    A position of a completed word either holds an original token
    (contributing 1 when it *is* the target) or an inserted element whose
    own content recursively embeds more wrapped originals.  ``target is
    None`` counts *all* tokens (the total-children bound).  The fixpoint
    is monotone over ``{0..CAP, INF}``, so it terminates; values above
    :data:`COUNT_CAP` saturate to :data:`_INF` (reported as unbounded,
    which is always sound — it only weakens the reject).
    """
    inserted: dict[str, int] = {name: 0 for name in programs}

    def contribution(symbol: str) -> int:
        direct = 1 if (target is None or symbol == target) else 0
        wrapped = 0 if symbol == PCDATA else inserted[symbol]
        value = max(direct, wrapped)
        return _INF if value >= _INF else value

    while True:
        weight = {name: contribution(name) for name in programs}
        weight[PCDATA] = 1 if (target is None or target == PCDATA) else 0
        capacity = {
            name: min(_max_weight(program, weight), _INF)
            for name, program in programs.items()
        }
        if all(capacity[name] <= inserted[name] for name in programs):
            return capacity  # the fixpoint: this round raised nothing
        for name, value in capacity.items():
            inserted[name] = max(inserted[name], value)


def compile_coarse(dag: DtdDag) -> CoarseSummary:
    """Derive the coarse summary from a compiled ``DAG_T``.

    Runs once per schema alongside the kernel tables; the result rides in
    format-version-3 artifacts and is what the ring client's batch filter
    consumes at check time.
    """
    dtd = dag.dtd
    analysis = dag.analysis
    names = dtd.element_names()
    index = {name: bit for bit, name in enumerate(names)}
    pcdata_bit = len(names)

    allowed: list[int] = []
    accepts: list[int] = []
    empty_ok = 0
    gap_direct = 0
    for bit, name in enumerate(names):
        reach = analysis.embed_reach.get(name, frozenset())
        mask = 0
        for token in reach:
            mask |= 1 << (pcdata_bit if token == PCDATA else index[token])
        allowed.append(mask)
        content = dtd[name].content
        if isinstance(content, AnyContent):
            accepts.append((1 << (pcdata_bit + 1)) - 1)
        elif isinstance(content, MixedContent):
            star = 1 << pcdata_bit
            for token in content.names:
                star |= 1 << index[token]
            accepts.append(star)
        else:
            accepts.append(0)
        if dag.dag(name).exact_tables.entry_can_finish:
            empty_ok |= 1 << bit
        if dtd[name].allows_pcdata_directly():
            gap_direct |= 1 << bit

    # Parikh-style intervals: per element, the finite per-token maxima and
    # the finite total-token maximum (unbounded entries are omitted).
    programs = {name: _weight_program(dtd.content_regex(name)) for name in names}
    per_token: dict[str, dict[str, int]] = {}
    for token in (*names, PCDATA):
        per_token[token] = _embed_capacity(programs, token)
    total_capacity = _embed_capacity(programs, None)

    counts: list[dict[int, int]] = []
    totals: list[int | None] = []
    for name in names:
        bounds: dict[int, int] = {}
        for token, capacities in per_token.items():
            value = capacities[name]
            if value < _INF:
                bit = pcdata_bit if token == PCDATA else index[token]
                bounds[bit] = value
        counts.append(bounds)
        total = total_capacity[name]
        totals.append(None if total >= _INF else total)

    return CoarseSummary(
        root=dtd.root,
        names=names,
        allowed=tuple(allowed),
        accepts=tuple(accepts),
        counts=tuple(counts),
        totals=tuple(totals),
        empty_ok=empty_ok,
        gap_direct=gap_direct,
    )


# -- the linear pass -------------------------------------------------------


class CoarseChecker:
    """Applies a :class:`CoarseSummary` to documents in one linear pass.

    The pass is the event walk
    :func:`~repro.core.stream.check_coarse_events`: it converts each
    element's children through ``Delta_T`` exactly like the full checkers
    as they arrive and keeps the first definite reject.  Paths use the
    same format as :class:`~repro.core.pv.PVChecker` failures, so a reject
    names a node the full check fails on.  A tree and its text get the
    same verdict, node and reason.
    """

    def __init__(self, summary: CoarseSummary) -> None:
        self.summary = summary

    def check_document(self, document: XmlDocument | XmlElement) -> CoarseVerdict:
        """The coarse pass over a parsed tree, fed by an iterative traversal."""
        # Lazy import: stream imports this module for the verdict types.
        from repro.core.stream import check_coarse_events, tree_events

        root = document.root if isinstance(document, XmlDocument) else document
        return check_coarse_events(self.summary, tree_events(root))

    def check_text(self, source: str) -> CoarseVerdict:
        """The coarse pass straight from document text, no tree built."""
        from repro.core.stream import stream_coarse_check

        return stream_coarse_check(self.summary, source)
