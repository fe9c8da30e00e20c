"""Schema sharding across validation servers: the routing client.

This module is the data plane of the horizontal-scaling layer over
:mod:`repro.server`: a fleet of independent
:class:`~repro.server.server.ValidationServer` processes ("shards"),
each with its own registry, fronted by a client that routes every
request to a shard owning the request's schema.  It composes the focused layers of the ring stack:

* :mod:`repro.server.placement` — :class:`ShardRing` (consistent
  hashing with virtual nodes and replica sets) and
  :class:`~repro.server.placement.PlacementView` (the epoch-stamped
  single source of truth for membership and ownership, shared with the
  server and its gossip agent).  Re-exported here for compatibility.
* :mod:`repro.server.pool` — :class:`~repro.server.pool.ConnectionPool`
  (pooled blocking connections with liveness marks).
* :mod:`repro.server.router` — :class:`~repro.server.router.Router`
  (pluggable read policies: ``primary-first``, ``round-robin``,
  ``least-inflight``).
* :mod:`repro.server.scheduler` —
  :class:`~repro.server.scheduler.CorpusScheduler` (replica-aware
  corpus spreading with straggler hand-off).

:class:`ShardedClient` is the blocking client composed of those layers.
It fingerprints each request's DTD locally (memoized), routes ``check``
/ ``classify`` / ``validate`` / ``check-batch`` to a live replica of
the owning set picked by the read policy, and fails over
deterministically along the ring's preference order when a shard is
unreachable.  When routing would land a schema on a shard that has not
seen it while another shard already holds the compiled artifact, the
client moves the artifact first — ``get-artifact`` from a holder,
``put-artifact`` to the target — and when a shard is observed compiling
a schema the artifact is fanned out to the rest of its replica set, so
each schema is compiled **at most once ring-wide** and killing any
single replica loses neither checks nor compiled work.

Live membership: replies from ring shards are stamped with the view's
**epoch**; a request routed under a stale epoch is answered
``wrong-epoch`` together with the current member list, and the client
adopts the new view — which also invalidates every cached placement
decision — and re-resolves, no restart.  The shards' own gossip agents
(:class:`repro.server.gossip.GossipAgent`) detect failures and joins
and mint those epochs.
"""

from __future__ import annotations

import base64
import threading
from typing import Any, Callable, Iterable

from repro.core.coarse import CoarseChecker, decode_coarse
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError
from repro.lru import LRU
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, Stopwatch, merge_snapshots
from repro.obs.trace import TraceContext
from repro.server.client import ServerError, ValidationClient
from repro.server.placement import (
    DEFAULT_VNODES,
    Member,
    PlacementView,
    ShardRing,
    member_label,
    parse_member,
)
from repro.server.pool import ConnectionPool
from repro.server.protocol import ProtocolError, READ_POLICIES
from repro.server.router import Router
from repro.server.scheduler import DEFAULT_WINDOW, CorpusScheduler
from repro.service.compiled import schema_fingerprint

__all__ = [
    "Member",
    "ShardRing",
    "ShardedClient",
    "ShardUnavailableError",
    "member_label",
    "parse_member",
    "READ_POLICIES",
]

#: How many wrong-epoch refreshes one routed call will follow before
#: giving up — bounds the retry loop when membership churns faster than
#: the client can re-resolve.
_MAX_EPOCH_REFRESHES = 4

#: Bound on the client's (dtd text, root) -> fingerprint memo.
_FINGERPRINT_MEMO_SIZE = 1024

#: Bound on the per-fingerprint coarse-summary cache (each entry is a
#: few hundred bytes plus a tiny checker).
_COARSE_CACHE_SIZE = 256


class ShardUnavailableError(ServerError, ConnectionError):
    """No replica (nor any fallback member) of a fingerprint is reachable.

    Raised by :class:`ShardedClient` when every candidate shard for a
    request failed — a **clear, immediate** error, never a hang.  It is
    both a :class:`~repro.server.client.ServerError` (structured code
    ``unreachable``) and a :class:`ConnectionError`, so callers written
    against either contract catch it.
    """

    def __init__(self, message: str, fingerprint: str | None = None) -> None:
        ServerError.__init__(self, "unreachable", message)
        self.fingerprint = fingerprint


def _get_coarse(client: ValidationClient, fingerprint: str) -> bytes | None:
    """``get-coarse`` on *client*, ``None`` for an ``artifact-miss``.

    That reply is one whole line, so the connection is still in sync and
    the lease keeps it, where an exception would discard it.
    """
    try:
        return client.get_coarse(fingerprint)
    except ServerError as error:
        if error.code == "artifact-miss":
            return None
        raise


class ShardedClient:
    """A blocking routing client over a replicated validation ring.

    Parameters
    ----------
    members:
        Shard addresses (Unix paths and/or ``(host, port)`` tuples).
    replica_count:
        Replica-set size R: every fingerprint's reads may be served by
        any of its R owners, and compiled artifacts are fanned out to
        all R, so any R-1 of them can die without losing a check or a
        compile.
    read_policy:
        How reads pick among a fingerprint's live replicas — one of
        :data:`~repro.server.protocol.READ_POLICIES`.  ``None`` (the
        default) follows the policy the ring advertises in its
        view, falling back to ``primary-first``.
    vnodes:
        Virtual nodes per member for the ring.
    timeout:
        Per-connection socket timeout, seconds.
    connect:
        Connection factory, ``(member, timeout) -> ValidationClient``;
        injectable for tests.
    telemetry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` exporting
        the client-side routing counters (reads per member, failovers,
        corpus requeues/steals).  Named ``telemetry`` — not ``metrics``
        — because :meth:`metrics` is the ring-wide scrape op.
    events:
        Optional :class:`~repro.obs.events.EventLog`; the client emits
        ``failover`` and (via its pool) ``member-down`` / ``member-up``.
    coarse_filter:
        When true, :meth:`check_batch` pre-filters batches client-side
        with the schema's few-hundred-byte coarse summary
        (:mod:`repro.core.coarse`), streamed over each document's text
        without building a tree: documents the summary decides
        definitely are answered locally (``algorithm == "coarse"``)
        and only the ``uncertain`` remainder crosses the wire.  The
        summary is fetched per fingerprint with the ``get-coarse`` op
        (and cached); when no shard holds the artifact yet, the first
        batch runs unfiltered with ``"coarse": true`` so the trailer's
        stamp primes the cache.

    The client is thread-safe: placement sits in a
    :class:`~repro.server.placement.PlacementView`, connections in a
    :class:`~repro.server.pool.ConnectionPool` (one lock per member),
    and load accounting in a :class:`~repro.server.router.Router`, so
    :meth:`check_corpus` can drive every shard from its own thread
    while artifact hand-offs stay serialized per connection.

    Live membership: once a reply stamps a ring ``epoch``, requests
    carry it; a ``wrong-epoch`` answer (a shard holds a newer view)
    delivers the new member list in its error object, and the client
    adopts it and re-resolves the call — placement refreshes without
    any restart.  A success reply stamped with a *newer* epoch triggers
    a one-round-trip ``health`` fetch of the membership behind it.
    **Every** adoption path invalidates the fingerprint→owners memo, so
    a stale placement decision can never route to a removed member.
    """

    def __init__(
        self,
        members: Iterable[Member],
        replica_count: int = 1,
        read_policy: str | None = None,
        vnodes: int = DEFAULT_VNODES,
        timeout: float | None = 30.0,
        connect: Callable[[Member, float | None], ValidationClient] | None = None,
        telemetry: MetricsRegistry | None = None,
        events: EventLog | None = None,
        coarse_filter: bool = False,
    ) -> None:
        self.placement = PlacementView(
            members, replica_count=replica_count, vnodes=vnodes
        )
        if not len(self.placement):
            raise ValueError("a sharded client needs at least one member")
        self.timeout = timeout
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.pool = ConnectionPool(
            timeout=timeout, connect=connect, events=self.events
        )
        self.pool.remember(self.placement.members)
        self.router = Router(
            self.placement, self.pool, policy=read_policy,
            metrics=self.telemetry,
        )
        self._lock = threading.Lock()
        self._holders: dict[str, set[str]] = {}
        self._fingerprints: LRU[tuple[str, str | None], str] = LRU(
            _FINGERPRINT_MEMO_SIZE
        )
        self._handoffs = 0
        self._handoff_bytes = 0
        self._failovers = 0
        self._compiles_observed = 0
        self.coarse_filter = bool(coarse_filter)
        self._coarse: LRU[str, CoarseChecker] = LRU(_COARSE_CACHE_SIZE)
        self._coarse_filtered = 0
        self._server_cache_hits = 0
        self.telemetry.counter(
            "repro_ring_failovers_total", read=lambda: self._failovers
        )

    # -- placement compatibility surface -------------------------------------

    @property
    def ring(self) -> ShardRing:
        """The current placement ring (mutable; embedders and tests
        drive scale events by mutating it directly — the placement
        view's memo tracks the mutation)."""
        return self.placement.ring

    @property
    def epoch(self) -> int | None:
        """The ring epoch this client routes under (``None`` until one is
        learned from a reply stamp, a refresh, or :meth:`refresh`)."""
        return self.placement.epoch

    @property
    def read_policy(self) -> str:
        """The effective read policy (explicit, else ring-advertised)."""
        return self.router.policy

    def refresh(
        self,
        members: Iterable[Member],
        epoch: int | None = None,
        replica_count: int | None = None,
    ) -> None:
        """Adopt a new ring view: rebuild placement over *members*.

        Called internally on ``wrong-epoch`` answers; public so embedders
        driving their own membership source can push views too.  An
        *epoch* older than the one already held is ignored (two racing
        membership changes converge on the newest).
        """
        if self.placement.adopt(
            members, epoch=epoch, replica_count=replica_count
        ):
            self.pool.remember(self.placement.members)

    def _adopt_view(self, fields: dict[str, Any]) -> bool:
        """Refresh from a ``wrong-epoch`` error object (or health reply)."""
        if self.placement.adopt_fields(fields):
            self.pool.remember(self.placement.members)
            return True
        return False

    def mark_up(self, member: Member) -> None:
        """Forget that *member* was unreachable (it is retried next call)."""
        self.pool.mark_up(member)

    # -- schema identity -----------------------------------------------------

    def fingerprint(self, dtd: str, root: str | None = None) -> str:
        """The routing fingerprint of *dtd* (parsed locally, memoized).

        Raises :class:`~repro.server.protocol.ProtocolError` with code
        ``bad-dtd`` on unparseable text, mirroring the server's own
        verdict for the same defect.
        """
        key = (dtd, root)
        with self._lock:
            cached = self._fingerprints.get(key)
            if cached is not None:
                return cached
        try:
            fingerprint = schema_fingerprint(parse_dtd(dtd, root=root))
        except ReproError as error:
            raise ProtocolError("bad-dtd", str(error))
        with self._lock:
            self._fingerprints.put(key, fingerprint)
        return fingerprint

    # -- epoch chasing -------------------------------------------------------

    def _maybe_refresh(self, member: Member, result: Any) -> None:
        """Chase the view behind an epoch stamped on a success reply.

        The stamp carries only the epoch int; the full view behind it —
        membership, replica count, the advertised read policy — is one
        ``health`` round trip away on the shard that answered.  Runs on
        the first stamp a client ever sees and on every stamp newer
        than the held epoch.  Adoption (like every other path) rebuilds
        placement and drops the owners memo.
        """
        reply = result[1] if isinstance(result, tuple) else result
        if not isinstance(reply, dict):
            return
        stamped = reply.get("epoch")
        if not isinstance(stamped, int):
            return
        current = self.placement.epoch
        if current is not None and stamped <= current:
            return
        try:
            view = self.pool.request(member, lambda client: client.health())
        except (OSError, ServerError, ProtocolError):
            view = None  # best-effort; fall back to the stamp alone
        if view is not None and self._adopt_view(view):
            return
        if current is None:
            # The health fetch failed (or carried no view): adopt at
            # least the epoch — membership already matches, this shard
            # just answered the routed request.
            self.placement.adopt(self.placement.members, epoch=stamped)

    # -- routing core --------------------------------------------------------

    def _call(
        self,
        fingerprint: str,
        fn: Callable[[ValidationClient, int | None], Any],
        handoff: bool = True,
        trace: TraceContext | None = None,
        member: Member | None = None,
    ) -> Any:
        """Run *fn* against a live replica picked by the read policy,
        failing over down the preference list; hand the artifact over
        first when possible.  *fn* receives the connection **and the
        epoch** to stamp on the request; a ``wrong-epoch`` answer
        refreshes the ring from the error object and re-resolves
        (bounded), so membership changes never require a client
        restart.  With a :class:`~repro.obs.trace.TraceContext` every
        attempted member becomes one hop record on the context.

        A pinned *member* is a one-candidate call with no failover: a
        transport failure marks it down and raises
        :class:`ShardUnavailableError`, so the corpus scheduler can
        re-queue the window onto the survivors."""
        last_error: Exception | None = None
        for _refresh in range(_MAX_EPOCH_REFRESHES):
            candidates = (
                [member] if member is not None
                else self.router.candidates(fingerprint)
            )
            owner = candidates[0]
            stale = False
            for candidate in candidates:
                label = member_label(candidate)
                if handoff:
                    self._ensure_artifact(candidate, fingerprint)
                wrong_epoch: ServerError | None = None
                epoch = self.placement.epoch
                hop = trace.begin_hop(label) if trace is not None else None
                self.router.begin(candidate)
                served = False
                try:
                    result = self.pool.request(
                        candidate, lambda client: fn(client, epoch)
                    )
                    served = True
                except OSError as error:  # covers ConnectionError and timeouts
                    if hop is not None and trace is not None:
                        trace.fail_hop(hop, error)
                    last_error = error
                    continue
                except ServerError as error:
                    if error.code != "wrong-epoch":
                        raise
                    # The shard holds a newer view; its error object
                    # carries the refresh (the lease already dropped the
                    # connection the rejected batch header closed).
                    wrong_epoch = error
                finally:
                    self.router.finish(candidate, served=served)
                if wrong_epoch is not None:
                    if hop is not None and trace is not None:
                        trace.fail_hop(hop, "wrong-epoch")
                    self._adopt_view(wrong_epoch.reply.get("error") or {})
                    last_error = wrong_epoch
                    stale = True
                    break  # re-resolve placement under the new view
                if hop is not None and trace is not None:
                    trace.end_hop(hop, result)
                if candidate is not owner:
                    with self._lock:
                        self._failovers += 1
                    self.events.emit(
                        "failover",
                        fingerprint=fingerprint[:16],
                        member=label,
                        owner=member_label(owner),
                    )
                if (
                    self._note_reply(candidate, result)
                    and self.placement.replica_count > 1
                ):
                    # The one honest compile just happened: fan the
                    # artifact out to the rest of the replica set now, so
                    # killing this shard later loses nothing.
                    self._replicate(fingerprint)
                self._maybe_refresh(candidate, result)
                return result
            if not stale:
                break
        raise ShardUnavailableError(
            f"no reachable replica for fingerprint {fingerprint[:16]}...: "
            f"{last_error}",
            fingerprint=fingerprint,
        )

    def _note_reply(self, member: Member, result: Any) -> bool:
        """Learn from a success reply; ``True`` when it shows the shard
        compiled the schema just now.

        *result* is one reply, or a batch's ``(item_replies, trailer)``
        tuple, whose trailer carries the stamps.  Three stamps are read:
        the server-reported load (``{"inflight", "queue_depth"}``, which
        ``least-inflight`` scores on in preference to client-local
        counters), the ``"cached": true`` of every reply a server with
        ``--verdict-cache`` answered from its memo cache, and the schema
        the reply names, whose shard is recorded as a holder of its
        artifact.
        """
        replies, reply = (
            result if isinstance(result, tuple) else ((result,), result)
        )
        if not isinstance(reply, dict):
            return False
        load = reply.get("load")
        if isinstance(load, dict) and isinstance(load.get("inflight"), int):
            queue_depth = load.get("queue_depth")
            self.router.note_load(
                member,
                load["inflight"],
                queue_depth if isinstance(queue_depth, int) else 0,
            )
        hits = sum(
            1
            for item in replies
            if isinstance(item, dict) and item.get("cached")
        )
        schema = reply.get("schema")
        fingerprint = (
            schema.get("fingerprint") if isinstance(schema, dict) else None
        )
        compiled = False
        with self._lock:
            self._server_cache_hits += hits
            if isinstance(fingerprint, str):
                self._holders.setdefault(fingerprint, set()).add(
                    member_label(member)
                )
                if schema.get("registry") == "miss":
                    # The shard compiled: the one compile this schema gets.
                    self._compiles_observed += 1
                    compiled = True
        return compiled

    def _replicate(self, fingerprint: str) -> None:
        """Fan the compiled artifact out to every replica of *fingerprint*.

        Best-effort, like all artifact movement: an unreachable replica
        simply compiles for itself if traffic ever reaches it cold.
        """
        for member in self.placement.owners(fingerprint):
            self._ensure_artifact(member, fingerprint)

    def _ensure_artifact(self, member: Member, fingerprint: str) -> None:
        """Move the compiled artifact to *member* when another shard has it.

        Best-effort: any failure (no holder, a holder gone dark, a
        transfer error) simply lets the target shard compile for itself —
        slower, never wrong.
        """
        label = member_label(member)
        down = self.pool.down
        with self._lock:
            holders = self._holders.get(fingerprint, set())
            if label in holders:
                return
            sources = [h for h in holders if h not in down and h != label]
        if not sources:
            return
        blob: bytes | None = None
        for source in sources:
            source_member = self._member_by_label(source)
            if source_member is None:
                continue
            try:
                blob = self.pool.request(
                    source_member,
                    lambda client: client.get_artifact(fingerprint),
                )
                break
            except OSError:
                continue  # the lease marked the holder down
            except ProtocolError:
                return  # garbled transfer: let the target compile
            except Exception:
                # artifact-miss and kin: the holder hint was stale.
                with self._lock:
                    self._holders.get(fingerprint, set()).discard(source)
        if blob is None:
            return
        try:
            self.pool.request(
                member, lambda client: client.put_artifact(fingerprint, blob)
            )
        except Exception:  # noqa: BLE001 - best-effort transfer
            return  # the routed call will fail over / compile as needed
        with self._lock:
            self._holders.setdefault(fingerprint, set()).add(label)
            self._handoffs += 1
            self._handoff_bytes += len(blob)

    def _member_by_label(self, label: str) -> Member | None:
        known = self.pool.address(label)
        if known is not None:
            return known
        for member in self.placement.members:
            if member_label(member) == label:
                return member
        return None

    # -- the ops -------------------------------------------------------------

    def check(
        self,
        dtd: str,
        doc: str,
        algorithm: str | None = None,
        root: str | None = None,
        id: Any = None,
        trace: bool | str = False,
    ) -> dict[str, Any]:
        """Potential-validity check, served by a live replica of the
        schema's owning set picked by the read policy.

        With ``trace=True`` (or a caller-chosen trace id string) the
        reply's ``trace`` object records every hop the routed call
        attempted — failed members with their errors, the serving member
        with the server's per-phase span (see :mod:`repro.obs.trace`).
        """
        fingerprint = self.fingerprint(dtd, root)
        ctx = TraceContext.make(trace)
        trace_id = ctx.id if ctx is not None else None
        result = self._call(
            fingerprint,
            lambda client, epoch: client.check(
                dtd, doc, algorithm=algorithm, root=root, id=id, epoch=epoch,
                trace=trace_id,
            ),
            trace=ctx,
        )
        return ctx.attach(result) if ctx is not None else result

    def validate(
        self, dtd: str, doc: str, root: str | None = None, id: Any = None,
        trace: bool | str = False,
    ) -> dict[str, Any]:
        """Standard DTD validation, routed (and traced) like :meth:`check`."""
        fingerprint = self.fingerprint(dtd, root)
        ctx = TraceContext.make(trace)
        trace_id = ctx.id if ctx is not None else None
        result = self._call(
            fingerprint,
            lambda client, epoch: client.validate(
                dtd, doc, root=root, id=id, epoch=epoch, trace=trace_id
            ),
            trace=ctx,
        )
        return ctx.attach(result) if ctx is not None else result

    def classify(
        self, dtd: str, root: str | None = None, id: Any = None
    ) -> dict[str, Any]:
        """Definition 6-8 classification, routed like :meth:`check`."""
        fingerprint = self.fingerprint(dtd, root)
        return self._call(
            fingerprint,
            lambda client, epoch: client.classify(
                dtd, root=root, id=id, epoch=epoch
            ),
        )

    # -- the client-side coarse pre-filter -----------------------------------

    def _coarse_checker(self, fingerprint: str) -> CoarseChecker | None:
        """The cached (or ``get-coarse``-fetched) coarse checker.

        ``None`` when no shard holds the artifact yet — the caller's
        cue to run the batch unfiltered with the reply-stamp ask.
        """
        with self._lock:
            checker = self._coarse.get(fingerprint)
            if checker is not None:
                return checker
        for member in self.router.candidates(fingerprint):
            try:
                blob = self.pool.request(
                    member, lambda client: _get_coarse(client, fingerprint)
                )
            except (OSError, ServerError, ProtocolError):
                # Unreachable (the lease marked it down), another error
                # reply, or a garbled reply: try the next.
                continue
            summary = None if blob is None else decode_coarse(blob)
            if summary is None:
                continue
            return self._remember_coarse(fingerprint, summary)
        return None

    def _remember_coarse(self, fingerprint: str, summary: Any) -> CoarseChecker:
        with self._lock:
            checker = self._coarse.get(fingerprint)
            if checker is None:
                checker = CoarseChecker(summary)
                self._coarse.put(fingerprint, checker)
        return checker

    def _adopt_coarse_stamp(
        self, fingerprint: str, reply: dict[str, Any]
    ) -> None:
        """Cache the coarse summary a reply stamped (first-miss path)."""
        stamp = reply.get("coarse")
        if not isinstance(stamp, str):
            return
        try:
            blob = base64.b64decode(stamp.encode("ascii"), validate=True)
        except Exception:  # noqa: BLE001 - a bad stamp only skips the cache
            return
        summary = decode_coarse(blob)
        if summary is not None:
            self._remember_coarse(fingerprint, summary)

    def _local_item(self, index: int, verdict: Any) -> dict[str, Any]:
        """A definite coarse outcome as a ``check-batch-item`` reply."""
        reply: dict[str, Any] = {
            "ok": True,
            "op": "check-batch-item",
            "id": index,
            "potentially_valid": verdict.outcome == "accept",
            "failures": [],
            "depth_limited": False,
            "algorithm": "coarse",
            "admission": verdict.outcome,
            "filtered": True,
        }
        if verdict.outcome == "reject":
            reply["failures"] = [
                {
                    "path": verdict.path,
                    "element": verdict.element,
                    "reason": verdict.reason,
                }
            ]
        return reply

    def _filtered_batch(
        self,
        dtd: str,
        docs: list[str],
        algorithm: str | None,
        root: str | None,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Answer definite documents locally; route only the uncertain."""
        watch = Stopwatch()
        fingerprint = self.fingerprint(dtd, root)
        checker = self._coarse_checker(fingerprint)
        if checker is None:
            # No shard holds the artifact yet: run unfiltered, ask for
            # the stamp, and cache it for the next batch.
            replies, trailer = self.routed_batch(
                dtd, docs, algorithm=algorithm, root=root, coarse=True
            )
            self._adopt_coarse_stamp(fingerprint, trailer)
            return replies, trailer
        merged: list[dict[str, Any] | None] = [None] * len(docs)
        escalate: list[int] = []
        for index, doc in enumerate(docs):
            try:
                verdict = checker.check_text(doc)
            except ReproError:
                escalate.append(index)  # the server owns bad-document
                continue
            if verdict.definite:
                merged[index] = self._local_item(index, verdict)
            else:
                escalate.append(index)
        filtered = len(docs) - len(escalate)
        with self._lock:
            self._coarse_filtered += filtered
        if escalate:
            replies, trailer = self._dispatch_batch(
                dtd, [docs[i] for i in escalate], algorithm, root, False
            )
            for position, index in enumerate(escalate):
                reply = dict(replies[position])
                reply["id"] = index
                merged[index] = reply
            trailer = dict(trailer)
        else:
            # No shard was asked: the trailer reports the local work.
            trailer = {
                "ok": True,
                "op": "check-batch",
                "errors": 0,
                "schema": {"fingerprint": fingerprint, "registry": "local"},
                "elapsed_ms": watch.elapsed_ms,
            }
        trailer["items"] = len(docs)
        trailer["filtered"] = filtered
        assert all(reply is not None for reply in merged)
        return merged, trailer  # type: ignore[return-value]

    def check_batch(
        self,
        dtd: str,
        docs: list[str],
        algorithm: str | None = None,
        root: str | None = None,
        trace: bool | str = False,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Stream a corpus for one schema — split across its live
        replicas when the read policy balances reads.

        With ``coarse_filter`` enabled (and the call untraced, using
        ``auto`` dispatch), documents the cached coarse summary
        decides definitely are answered locally and only the uncertain
        remainder crosses the wire; the trailer gains ``"filtered"``.

        Under ``primary-first``, a single-replica ring, a traced call,
        or a corpus that fits one scheduler window, this is one stream
        to one owning replica (byte-for-byte the classic behavior, see
        :meth:`routed_batch`).  Otherwise the documents are handed to
        the :class:`~repro.server.scheduler.CorpusScheduler`, which
        splits them into windows spread over the schema's live owners —
        with straggler hand-off and re-queue on mid-run death — and
        merges the replies back into document order.
        """
        if (
            self.coarse_filter
            and not trace
            and algorithm in (None, "auto")
            and docs
        ):
            return self._filtered_batch(dtd, docs, algorithm, root)
        return self._dispatch_batch(dtd, docs, algorithm, root, trace)

    def _dispatch_batch(
        self,
        dtd: str,
        docs: list[str],
        algorithm: str | None,
        root: str | None,
        trace: bool | str,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """The classic scheduler-or-single-stream batch path."""
        if (
            not trace
            and self.placement.replica_count > 1
            and len(docs) > DEFAULT_WINDOW
            and self.read_policy != "primary-first"
        ):
            scheduler = CorpusScheduler(self)
            replies, trailer = scheduler.run(
                [(dtd, docs)], algorithm=algorithm, root=root
            )[0]
            if replies is not None:
                return replies, trailer
            # The scheduler gave up (every replica dark mid-run); fall
            # through to the single-stream path, which fails over along
            # the full preference list and raises the structured error.
        return self.routed_batch(
            dtd, docs, algorithm=algorithm, root=root, trace=trace
        )

    def routed_batch(
        self,
        dtd: str,
        docs: list[str],
        algorithm: str | None = None,
        root: str | None = None,
        trace: bool | str = False,
        coarse: bool | None = None,
        member: Member | None = None,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Stream a whole corpus for one schema to a live owning replica.

        The single-stream primitive :meth:`check_batch` and the corpus
        scheduler build on: one member, picked by the read policy, with
        failover down the preference list.  With ``trace`` the batch
        **trailer** carries the hop records (per-item replies carry
        lightweight per-item spans).  A pinned *member* is how the
        scheduler places a window: no failover, and a transport failure
        raises :class:`ShardUnavailableError` (see :meth:`_call`).
        """
        fingerprint = self.fingerprint(dtd, root)
        ctx = TraceContext.make(trace)
        trace_id = ctx.id if ctx is not None else None
        result = self._call(
            fingerprint,
            lambda client, epoch: client.check_batch(
                dtd, docs, algorithm=algorithm, root=root, epoch=epoch,
                trace=trace_id, coarse=coarse,
            ),
            trace=ctx,
            member=member,
        )
        return ctx.attach(result) if ctx is not None else result

    def check_corpus(
        self,
        batches: list[tuple],
        algorithm: str | None = None,
        root: str | None = None,
        read_policy: str | None = None,
        window: int = DEFAULT_WINDOW,
    ) -> list[tuple[list[dict[str, Any]] | None, dict[str, Any]]]:
        """Check many schema batches across the ring.

        Each batch is ``(dtd, docs)`` or ``(dtd, docs, root)`` — a
        per-batch root overrides the *root* default.  Scheduling is the
        :class:`~repro.server.scheduler.CorpusScheduler`'s: under
        ``primary-first`` each schema streams to its primary owner
        (batches grouped per shard, shards driven in parallel — the
        classic placement, byte for byte); under ``round-robin`` /
        ``least-inflight`` each schema's documents are split into
        *window*-sized chunks spread over all R live owners with
        straggler hand-off.  *read_policy* overrides the client's
        effective policy for this corpus only.

        Results come back in *batches* order.  A batch that failed —
        every candidate shard unreachable, a server rejection — does
        **not** abort the rest of the corpus: its entry is
        ``(None, trailer)`` where the trailer is the structured error
        shape ``{"ok": False, "error": {"code": ..., "message": ...}}``,
        so callers distinguish per-batch failures positionally, exactly
        like per-item errors inside a batch.
        """
        scheduler = CorpusScheduler(self, policy=read_policy, window=window)
        return scheduler.run(batches, algorithm=algorithm, root=root)

    def stats(self) -> dict[str, Any]:
        """Per-shard server stats plus the client's own counters."""
        shards: dict[str, Any] = {}
        for member in self.placement.members:
            label = member_label(member)
            try:
                shards[label] = self.pool.request(
                    member, lambda client: client.stats()
                )
            except OSError:
                shards[label] = None
        return {"shards": shards, "ring": self.ring_stats}

    def metrics(self) -> dict[str, Any]:
        """Ring-wide metrics scrape: per-shard snapshots, their merge,
        and the client's own telemetry snapshot.

        ``shards`` maps member label to that shard's snapshot (``None``
        for an unreachable shard); ``merged`` is the
        :func:`~repro.obs.metrics.merge_snapshots` aggregation of the
        reachable ones — ring-wide p99 is one
        :func:`~repro.obs.metrics.histogram_quantile` call away.
        """
        shards: dict[str, Any] = {}
        reachable: list[dict[str, Any]] = []
        for member in self.placement.members:
            label = member_label(member)
            try:
                reply = self.pool.request(
                    member, lambda client: client.metrics()
                )
            except OSError:
                shards[label] = None
                continue
            snapshot = reply.get("metrics") or {}
            shards[label] = snapshot
            reachable.append(snapshot)
        return {
            "shards": shards,
            "merged": merge_snapshots(reachable),
            "client": self.telemetry.snapshot(),
        }

    @property
    def ring_stats(self) -> dict[str, Any]:
        """The client's routing counters (JSON-ready)."""
        router_stats = self.router.stats()
        with self._lock:
            return {
                "members": [member_label(m) for m in self.placement.members],
                "down": sorted(self.pool.down),
                "epoch": self.placement.epoch,
                "epoch_refreshes": self.placement.refreshes,
                "replica_count": self.placement.replica_count,
                "read_policy": router_stats["policy"],
                "requests_by_member": router_stats["requests_by_member"],
                "inflight": router_stats["inflight"],
                "handoffs": self._handoffs,
                "handoff_bytes": self._handoff_bytes,
                "failovers": self._failovers,
                "compiles_observed": self._compiles_observed,
                "schemas_tracked": len(self._holders),
                "coarse_filtered": self._coarse_filtered,
                "coarse_cached": len(self._coarse),
                "server_cache_hits": self._server_cache_hits,
            }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
