"""Problem PV off the event stream: the one document walk.

Section 4's reduction makes Problem PV equal to Problem ECPV at every
element, so a backend needs only each element's ``Delta_T`` child
sequence, and an event stream delivers those sequences in document
order.  :func:`check_events` is the walk every backend runs: it holds one
frame per *open* element and no Python call per document level, so
document depth is bounded by memory, never by the interpreter stack.

* **Kernel frames** hold a :class:`~repro.core.kernel.KernelState`, an
  interned kernel configuration, and step it per child as it arrives:
  one ``state.next`` lookup on the child's interned id, and
  :func:`~repro.core.kernel.advance` only on a miss.  A configuration too
  large to intern is a raw :class:`~repro.core.kernel.KernelMachine`,
  which answers ``next`` and ``accepts`` the same way.
* **Every other backend** (``machine``, ``earley``, ``figure5``) keeps
  the frame's ``Delta_T`` symbols and is asked once per element, at its
  end tag, through :meth:`~repro.core.pv.PVChecker.check_content`.

Two feeders drive the walk: :func:`~repro.xmlmodel.fastlex.scan_events`
over document text (no tree is built) and :func:`tree_events`, a parsed
tree's :func:`~repro.xmlmodel.tree.walk`.  Both yield the events of a
well-formed document: one root, properly nested tags, no text outside
the root.  The scanner raises every well-formedness error itself, the
parser's, and the walk reads every event, so it never stops scanning
early.  A walk therefore reads no offset, raises no syntax error and
does not know which feeder it reads.  :class:`~repro.core.pv.PVChecker`
routes ``check_text`` and ``check_document`` through them;
:func:`stream_check_document` is the kernel's text entry.  Failures come
out in pre-order, nothing is checked under an undeclared element or a
mismatched root, and failure paths are built lazily from the open-frame
chain, only for nodes that fail.

:func:`check_coarse_events` is the coarse pass over the same events,
with the same two feeders: :func:`stream_coarse_check` over text (the
ring client's filter runs it) and
:meth:`~repro.core.coarse.CoarseChecker.check_document` over a tree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.core.coarse import CoarseSummary, CoarseVerdict
from repro.core.kernel import advance, initial_state
from repro.core.pv import NodeFailure, PVVerdict
from repro.service.compiled import CompiledSchema
from repro.xmlmodel.delta import SIGMA
from repro.xmlmodel.fastlex import EV_START, EV_TEXT, scan_events
from repro.xmlmodel.tree import XmlElement, walk

__all__ = [
    "check_coarse_events",
    "check_events",
    "stream_check_document",
    "stream_coarse_check",
    "tree_events",
]

# Frame layout for the walk (lists beat attribute access in the inner
# loop).  ``SYMBOLS is None`` marks a suppressed frame: under an
# undeclared element or a mismatched root nothing is checked or recorded.
# ``STATE`` is the kernel state, ``None`` for a backend that checks the
# element whole.  ``FAILURES`` stays ``None`` until a descendant fails.
_NAME = 0
_STATE = 1
_SYMBOLS = 2
_FAILURES = 3
_OWN = 4
_PARENT = 5
_INDEX = 6
_CHILDREN = 7

_CONTENT_REASON = "content cannot be completed by tag insertions alone"


def _frame_path(frame: list) -> str:
    """The ``/root/child[i]`` path of *frame*, built only on failure."""
    parts = []
    while frame[_PARENT] is not None:
        parts.append(f"/{frame[_NAME]}[{frame[_INDEX]}]")
        frame = frame[_PARENT]
    parts.append(f"/{frame[_NAME]}")
    return "".join(reversed(parts))


def tree_events(root: XmlElement) -> Iterator[tuple[int, str, int]]:
    """The ``scan_events`` stream of the subtree at *root*, off its walk.

    Offsets are ``0``: no walk reads one.
    """
    for kind, node in walk(root):
        yield kind, node.text if kind == EV_TEXT else node.name, 0


def stream_check_document(compiled: CompiledSchema, source: str) -> PVVerdict:
    """Problem PV over *source* with kernel semantics, no tree built."""
    return check_events(compiled, scan_events(source))


def check_events(
    compiled: CompiledSchema,
    events: Iterable[tuple[int, str, int]],
    check_content: Callable[[str, Sequence[str]], bool] | None = None,
    depth_bounded: bool = False,
) -> PVVerdict:
    """Problem PV over one well-formed document's *events*.

    The events are ``(kind, payload, offset)`` tuples from a feeder that
    guarantees one root and proper nesting; offsets are not read.  With
    *check_content* ``None`` the kernel decides every element as its
    children arrive.  Otherwise each element's ``Delta_T`` symbols go to
    ``check_content(element, symbols)`` once, at its end tag.  When
    *depth_bounded*, a "no" from the content checks is reported as
    ``depth_limited``: the caller's backend ran under an insertion-depth
    bound that may have cut a witness.  A root mismatch never is.
    """
    tables = compiled.tables
    sid_get = tables.sid.get
    sigma_id = tables.sid[SIGMA]
    dtd_root = compiled.dtd.root
    kernel = check_content is None
    # Interned states: ``~element_id`` keys an element's state before its
    # first child.
    memo_get = tables.emissions.get

    stack: list[list] = []
    root_failures: list[NodeFailure] | None = None
    root_mismatch: NodeFailure | None = None

    for kind, payload, _offset in events:
        if kind == EV_START:
            if stack:
                parent = stack[-1]
                index = parent[_CHILDREN]
                parent[_CHILDREN] = index + 1
                symbols = parent[_SYMBOLS]
                if symbols is None:
                    # Suppressed subtree: track nesting only.
                    stack.append([payload, None, None, None, None, parent, index, 0])
                    continue
                symbols.append(payload)
                sym = sid_get(payload, -1)
                if kernel:
                    state = parent[_STATE]
                    parent[_STATE] = state.next.get(sym) or advance(tables, state, sym)
                if sym < 0:
                    frame = [payload, None, None, None, None, parent, index, 0]
                    frame[_OWN] = NodeFailure(
                        path=_frame_path(frame),
                        element=payload,
                        symbols=(),
                        reason=(
                            f"element type <{payload}> is not declared in the DTD"
                        ),
                    )
                    stack.append(frame)
                    continue
                stack.append(
                    [
                        payload,
                        (memo_get(~sym) or initial_state(tables, sym))
                        if kernel
                        else None,
                        [],
                        None,
                        None,
                        parent,
                        index,
                        0,
                    ]
                )
                continue
            if payload != dtd_root:
                root_mismatch = NodeFailure(
                    path="/",
                    element=payload,
                    symbols=(),
                    reason=(
                        f"document root is <{payload}> but the DTD root is "
                        f"<{dtd_root}>"
                    ),
                )
                stack.append([payload, None, None, None, None, None, 0, 0])
                continue
            stack.append(
                [
                    payload,
                    initial_state(tables, tables.sid[payload]) if kernel else None,
                    [],
                    None,
                    None,
                    None,
                    0,
                    0,
                ]
            )
        elif kind == EV_TEXT:
            if not payload:
                continue
            frame = stack[-1]
            symbols = frame[_SYMBOLS]
            if symbols is None:
                continue
            if not symbols or symbols[-1] != SIGMA:
                symbols.append(SIGMA)
                if kernel:
                    state = frame[_STATE]
                    frame[_STATE] = state.next.get(sigma_id) or advance(
                        tables, state, sigma_id
                    )
        else:  # EV_END
            frame = stack.pop()
            own = frame[_OWN]
            subtree = frame[_FAILURES]
            symbols = frame[_SYMBOLS]
            if symbols is not None:
                if kernel:
                    failed = not frame[_STATE].accepts
                else:
                    symbols = tuple(symbols)
                    failed = not check_content(payload, symbols)
                if failed:
                    own = NodeFailure(
                        path=_frame_path(frame),
                        element=payload,
                        symbols=tuple(symbols),
                        reason=_CONTENT_REASON,
                    )
            if own is not None:
                # Pre-order: a node's own failure precedes its subtree's.
                if subtree:
                    subtree.insert(0, own)
                else:
                    subtree = [own]
            parent = frame[_PARENT]
            if parent is None:
                root_failures = subtree or []
            elif subtree and parent[_SYMBOLS] is not None:
                if parent[_FAILURES] is None:
                    parent[_FAILURES] = subtree
                else:
                    parent[_FAILURES].extend(subtree)
    if root_mismatch is not None:
        return PVVerdict(False, (root_mismatch,), depth_limited=False)
    failures = tuple(root_failures or ())
    return PVVerdict(
        not failures, failures, depth_limited=depth_bounded and bool(failures)
    )


# Frame layout for the coarse pass: [name, bit, seen, symbols, accept,
# last_sigma, path, child_index].  ``bit is None`` marks an undeclared
# element (its parent's token check already rejected; the frame is inert).
_C_NAME = 0
_C_BIT = 1
_C_SEEN = 2
_C_COUNT = 3
_C_ACCEPT = 4
_C_LAST_SIGMA = 5
_C_PATH = 6
_C_CHILDREN = 7


def stream_coarse_check(summary: CoarseSummary, source: str) -> CoarseVerdict:
    """The coarse pass over *source*, no tree built."""
    return check_coarse_events(summary, scan_events(source))


def check_coarse_events(
    summary: CoarseSummary, events: Iterable[tuple[int, str, int]]
) -> CoarseVerdict:
    """The coarse pass over one well-formed document's *events*.

    :class:`~repro.core.coarse.CoarseChecker` feeds it a tree through
    :func:`tree_events`, and :func:`stream_coarse_check` feeds it text,
    so both report the same verdict, node and reason for the same
    document.  The pass reads every event, so a pending verdict never
    swallows the scanner's well-formedness error.
    """
    pcdata_bit = summary.pcdata_bit
    element_bit = summary.element_bit
    allowed_masks = summary.allowed
    accepts_masks = summary.accepts
    counts = summary.counts
    totals = summary.totals
    empty_ok = summary.empty_ok

    stack: list[list] = []
    reject: CoarseVerdict | None = None
    uncertain: CoarseVerdict | None = None

    def child_token(frame: list, token_bit: int | None, symbol: str) -> None:
        """Apply one ``Delta_T`` token to *frame*."""
        nonlocal reject
        bit = frame[_C_BIT]
        name = frame[_C_NAME]
        frame[_C_COUNT] += 1
        if token_bit is None or not (allowed_masks[bit] >> token_bit) & 1:
            if symbol == SIGMA:
                reason = (
                    f"character data can never occur inside <{name}> "
                    "(no insertion chain embeds it)"
                )
            elif token_bit is None:
                reason = (
                    f"child <{symbol}> is not declared in the DTD, so the "
                    f"content of <{name}> can never complete"
                )
            else:
                reason = (
                    f"<{symbol}> can never occur inside <{name}> "
                    "(no insertion chain embeds it)"
                )
            reject = CoarseVerdict(
                "reject", path=frame[_C_PATH], element=name, reason=reason
            )
            return
        seen = frame[_C_SEEN]
        tally = seen.get(token_bit, 0) + 1
        seen[token_bit] = tally
        limit = counts[bit].get(token_bit)
        if limit is not None and tally > limit:
            what = (
                "character-data runs"
                if token_bit == pcdata_bit
                else f"<{symbol}> children"
            )
            reject = CoarseVerdict(
                "reject",
                path=frame[_C_PATH],
                element=name,
                reason=(
                    f"{tally} {what} exceed the most any completable "
                    f"content of <{name}> embeds ({limit})"
                ),
            )
            return
        if not (accepts_masks[bit] >> token_bit) & 1:
            frame[_C_ACCEPT] = False

    for kind, payload, _offset in events:
        if kind == EV_START:
            if not stack:
                if payload != summary.root:
                    reject = CoarseVerdict(
                        "reject",
                        path="/",
                        element=payload,
                        reason=(
                            f"document root is <{payload}> but the DTD root "
                            f"is <{summary.root}>"
                        ),
                    )
                bit = element_bit(payload) if reject is None else None
                stack.append([payload, bit, {}, 0, True, False, f"/{payload}", 0])
                continue
            parent = stack[-1]
            path = f"{parent[_C_PATH]}/{payload}[{parent[_C_CHILDREN]}]"
            parent[_C_CHILDREN] += 1
            bit = element_bit(payload)
            if reject is None and parent[_C_BIT] is not None:
                parent[_C_LAST_SIGMA] = False
                child_token(parent, bit, payload)
            if reject is not None:
                bit = None
            stack.append([payload, bit, {}, 0, True, False, path, 0])
        elif kind == EV_TEXT:
            if not payload:
                continue
            frame = stack[-1]
            if reject is None and frame[_C_BIT] is not None:
                if not frame[_C_LAST_SIGMA]:
                    frame[_C_LAST_SIGMA] = True
                    child_token(frame, pcdata_bit, SIGMA)
        else:  # EV_END
            frame = stack.pop()
            if reject is not None:
                continue
            bit = frame[_C_BIT]
            if bit is None:
                continue
            name = frame[_C_NAME]
            if frame[_C_COUNT] == 0:
                if not (empty_ok >> bit) & 1:
                    reject = CoarseVerdict(
                        "reject",
                        path=frame[_C_PATH],
                        element=name,
                        reason=(
                            f"the empty content of <{name}> cannot be "
                            "completed by tag insertions alone"
                        ),
                    )
                continue
            total = totals[bit]
            if total is not None and frame[_C_COUNT] > total:
                reject = CoarseVerdict(
                    "reject",
                    path=frame[_C_PATH],
                    element=name,
                    reason=(
                        f"{frame[_C_COUNT]} children exceed the most any "
                        f"completable content of <{name}> embeds ({total})"
                    ),
                )
                continue
            if not frame[_C_ACCEPT] and uncertain is None:
                uncertain = CoarseVerdict(
                    "uncertain",
                    path=frame[_C_PATH],
                    element=name,
                    reason=(
                        "children may need insertions; escalating to a "
                        "full backend"
                    ),
                )
    if reject is not None:
        return reject
    if uncertain is not None:
        return uncertain
    return CoarseVerdict(
        "accept", reason="every node's children already spell a word"
    )
