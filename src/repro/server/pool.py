"""Pooled blocking connections to ring members, with liveness state.

:class:`ConnectionPool` is the one place the ring stack keeps sockets:
one cached :class:`~repro.server.client.ValidationClient` per member,
one lock per member (a blocking NDJSON connection serves one request at
a time), and the up/down marks that routing consults.  Both the data
plane (:class:`~repro.server.ring.ShardedClient` and its
:class:`~repro.server.scheduler.CorpusScheduler`) and the control plane
(each shard's :class:`~repro.server.gossip.GossipAgent`) make every
round trip through its one lease, :meth:`ConnectionPool.request`, so
reconnect, mark-down and discard behavior is defined exactly once.

The pool also remembers every address it has ever been told about,
keyed by label.  Ring membership may shrink (scale-in), but a departed
member can still be reachable and is exactly where hand-off artifacts
come from — placement and reachability are separate facts.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, TypeVar

from repro.obs.events import EventLog
from repro.server.client import ValidationClient
from repro.server.placement import Member, member_label

__all__ = ["ConnectionPool"]

T = TypeVar("T")


class ConnectionPool:
    """One cached connection, one lock, and a liveness mark per member.

    Parameters
    ----------
    timeout:
        Per-connection socket timeout, seconds.
    connect:
        Connection factory, ``(member, timeout) -> ValidationClient``;
        injectable for tests.
    events:
        Optional :class:`~repro.obs.events.EventLog`; liveness
        transitions emit ``member-down`` / ``member-up`` events.

    Every round trip goes through :meth:`request`, which holds the
    member's lock across the whole exchange.  That serializes requests
    per connection (the NDJSON protocol is one request per reply on a
    plain socket) while distinct members proceed concurrently.
    """

    def __init__(
        self,
        timeout: float | None = 30.0,
        connect: Callable[[Member, float | None], ValidationClient] | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.timeout = timeout
        self.events = events if events is not None else EventLog()
        self._connect = connect or (
            lambda member, timeout: ValidationClient.connect(member, timeout=timeout)
        )
        self._lock = threading.Lock()
        self._member_locks: dict[str, threading.Lock] = {}
        self._clients: dict[str, ValidationClient] = {}
        self._addresses: dict[str, Member] = {}
        self._down: set[str] = set()
        self._quarantined: set[str] = set()

    # -- addresses -----------------------------------------------------------

    def remember(self, members: Iterable[Member]) -> None:
        """Record addresses for later lookup by label (idempotent)."""
        with self._lock:
            for member in members:
                self._addresses.setdefault(member_label(member), member)

    def address(self, label: str) -> Member | None:
        """The member address once known under *label*, if any."""
        with self._lock:
            return self._addresses.get(label)

    # -- liveness ------------------------------------------------------------

    @property
    def down(self) -> set[str]:
        """Labels currently marked unreachable (a copy)."""
        with self._lock:
            return set(self._down)

    def is_down(self, member: Member) -> bool:
        with self._lock:
            return member_label(member) in self._down

    def mark_up(self, member: Member) -> None:
        """Forget that *member* was unreachable (it is retried next call).

        A quarantined member (see :meth:`quarantine`) stays down: the
        quarantine is the stronger, sticky verdict of the membership
        layer and only :meth:`lift_quarantine` clears it.
        """
        label = member_label(member)
        with self._lock:
            if label in self._quarantined:
                return
            was_down = label in self._down
            self._down.discard(label)
        if was_down:
            self.events.emit("member-up", member=label)

    def mark_down(
        self, member: Member, failed: ValidationClient | None = None
    ) -> None:
        """Record a failure of *member*, closing the *failed* connection.

        Only the connection that actually failed is evicted: between a
        caller's failure and this call another thread may already have
        reconnected a healthy client under the member lock, and closing
        that one would abort its in-flight work and mark a live shard
        down for nothing.
        """
        label = member_label(member)
        went_down = False
        with self._lock:
            cached = self._clients.get(label)
            if failed is None or cached is failed:
                self._clients.pop(label, None)
                went_down = label not in self._down
                self._down.add(label)
            to_close = failed if failed is not None else cached
        if went_down:
            self.events.emit("member-down", member=label)
        if to_close is not None:
            try:
                to_close.close()
            except OSError:
                pass

    def quarantine(self, member: Member) -> None:
        """Mark *member* down **stickily** (the gossip/membership verdict).

        A plain :meth:`mark_down` is advisory — the next successful
        connect (or any :meth:`mark_up`) clears it.  That is exactly
        wrong for a member the membership layer has declared down: a
        pooled connection that was **mid-request when the verdict
        landed** returns successfully a moment later and would
        resurrect the member, re-routing traffic to a shard the ring
        has already moved on from.  Quarantine closes that race: the
        down mark survives replies and reconnects until
        :meth:`lift_quarantine` (issued when the membership layer sees
        the member alive again) releases it.
        """
        label = member_label(member)
        with self._lock:
            self._quarantined.add(label)
        self.mark_down(member)

    def lift_quarantine(self, member: Member) -> None:
        """Release a :meth:`quarantine` and mark the member up."""
        label = member_label(member)
        with self._lock:
            if label not in self._quarantined:
                return
            self._quarantined.discard(label)
        self.mark_up(member)

    def is_quarantined(self, member: Member) -> bool:
        with self._lock:
            return member_label(member) in self._quarantined

    # -- connections ---------------------------------------------------------

    def request(
        self, member: Member, fn: Callable[[ValidationClient], T]
    ) -> T:
        """One round trip on *member*'s pooled connection: ``fn(client)``.

        The one lease of the ring stack.  It holds the member's lock and
        takes (or opens) its connection, and the connection is reused
        only after a clean round trip.  A transport failure
        (:class:`OSError`, timeouts and refused connects included) marks
        the member down and closes that connection.  Any other exception
        — a structured error reply, a garbled reply, a rejected batch
        header the server hung up after — may leave unread reply lines
        on the socket, so the connection is discarded without a down
        mark.  Either way the exception propagates.
        """
        with self.lock(member):
            client: ValidationClient | None = None
            try:
                client = self.client(member)
                return fn(client)
            except OSError:
                self.mark_down(member, client)
                raise
            except BaseException:
                if client is not None:
                    self.discard(member, client)
                raise

    def lock(self, member: Member) -> threading.Lock:
        """The per-member connection lock (created on first use)."""
        label = member_label(member)
        with self._lock:
            lock = self._member_locks.get(label)
            if lock is None:
                lock = self._member_locks[label] = threading.Lock()
            return lock

    def client(self, member: Member) -> ValidationClient:
        """The live connection for *member*, connecting on first use.

        Caller must hold :meth:`lock` for the member; :meth:`request`
        does both.
        """
        label = member_label(member)
        with self._lock:
            client = self._clients.get(label)
        if client is not None:
            return client
        client = self._connect(member, self.timeout)
        with self._lock:
            self._clients[label] = client
            self._addresses[label] = member
            # A successful connect is only advisory liveness: it clears
            # a plain down mark, never a quarantine (the membership
            # layer's sticky verdict — see :meth:`quarantine`).
            came_back = label in self._down and label not in self._quarantined
            if label not in self._quarantined:
                self._down.discard(label)
        if came_back:
            self.events.emit("member-up", member=label)
        return client

    def discard(self, member: Member, client: ValidationClient) -> None:
        """Evict and close a connection without marking the member down.

        :meth:`request` calls it after any non-transport failure: the
        shard is alive (it just answered), but the connection may hold
        unread replies or have been closed server-side, so the cached
        client must go.
        **Caller must hold the member's connection lock** — that is what
        guarantees no other thread is mid-request on this client, so
        closing it here cannot abort a healthy peer call (the hazard
        :meth:`mark_down` documents).
        """
        label = member_label(member)
        with self._lock:
            if self._clients.get(label) is client:
                self._clients.pop(label)
        try:
            client.close()
        except OSError:
            pass

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every pooled connection (liveness marks are kept)."""
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except OSError:
                pass

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
