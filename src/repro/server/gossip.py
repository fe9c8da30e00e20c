"""SWIM-style gossip membership: the ring's one control plane.

:class:`GossipAgent` is the per-server membership loop; a ring's
membership and epochs come from its shards' agents alone.  Each interval
it picks one random peer from its server's
:class:`~repro.server.placement.PlacementView` and probes it with a
``health`` request carrying this view's full epoch-stamped gossip table
(:meth:`PlacementView.gossip_delta`); the peer merges it and answers
with its own, so one round trip synchronizes both sides.  When the
direct probe fails, the agent asks up to *indirect* other live members
to reach the peer on its behalf (the ``probe`` wire op) before marking
it **suspect** — one flaky link must not take a healthy shard out of
the ring.  A suspicion that survives *suspect_after* seconds unrefuted
is confirmed **down** (the view mints a new epoch and the ring
reshapes); a member down for *remove_after* seconds is purged from the
table entirely.

A shard joining through *seeds* prefetches before it announces itself:
it reads a seed's view with a plain ``health`` (one carrying no gossip,
so the seed learns nothing of the joiner yet), collects the live
members' ``hot`` lists from ``stats``, and fetches with ``get-artifact``
every listed fingerprint it will own under those members plus itself,
hottest first.  Its first routed request for such a schema is then a
registry hit, not a compile.  Unreachable peers are skipped.

Refutation closes the false-positive loop: a live member that learns —
via any merge — that the cluster thinks it is suspect or down
re-announces itself **alive at incarnation + 1**, which supersedes the
rumor everywhere it has spread (see ``placement._supersedes``).

The agent also keeps its :class:`~repro.server.pool.ConnectionPool`
honest: a member the table holds **down** is quarantined (a sticky down
mark that a mid-request reply cannot lift — see
:meth:`ConnectionPool.quarantine`), and the quarantine is released only
when the table says alive again.

Instruments (all in ``MetricsRegistry``'s catalog):
``repro_gossip_probe_seconds`` (direct-probe round trips),
``repro_gossip_suspects_total`` / ``repro_gossip_refutes_total`` /
``repro_gossip_down_total`` (lifecycle transitions this agent drove),
and ``repro_view_epoch`` (the epoch this view currently holds).
Events: ``member-joined`` (with the count ``prefetched``),
``member-suspect``, ``member-refuted``, ``member-down`` and
``member-removed`` here, plus the pool's ``member-down`` /
``member-up`` on quarantine transitions.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from time import monotonic
from typing import Any, Callable

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, Stopwatch
from repro.server.client import ServerError
from repro.server.placement import (
    Member,
    PlacementView,
    ShardRing,
    member_label,
    parse_member,
)
from repro.server.pool import ConnectionPool
from repro.server.protocol import ProtocolError

__all__ = [
    "DEFAULT_INDIRECT_PROBES",
    "DEFAULT_PROBE_INTERVAL",
    "DEFAULT_REMOVE_AFTER",
    "DEFAULT_SUSPECT_AFTER",
    "GossipAgent",
]

#: Seconds between probe rounds.
DEFAULT_PROBE_INTERVAL = 1.0

#: Seconds an unrefuted suspicion stands before it is confirmed down.
DEFAULT_SUSPECT_AFTER = 3.0

#: Seconds a down member lingers in the table (spreading the rumor)
#: before it is purged.  ``0`` disables purging.
DEFAULT_REMOVE_AFTER = 60.0

#: How many other members are asked to probe a peer indirectly before
#: a failed direct probe becomes a suspicion.
DEFAULT_INDIRECT_PROBES = 2


class GossipAgent:
    """The SWIM-ish probe/merge loop of one validation server.

    Parameters
    ----------
    view:
        The server's own :class:`PlacementView` — gossip mutates the
        very view the server's epoch gate and stats serve, which is
        what makes any shard an authoritative membership source.
    self_label:
        This server's member label (``host:port`` or unix path) — the
        identity defended by refutation and excluded from probing.
    seeds:
        Addresses of a running ring to join: :meth:`start` reads a
        seed's view and prefetches first, and the probe loop contacts
        them while the table knows no other peer.
    connect:
        Connection factory for the probe pool, injectable for tests.
    install:
        ``(fingerprint, blob) -> bool``: installs one prefetched artifact
        blob (the server's ``put-artifact`` check; ``False`` means
        rejected).  Without it a join prefetches nothing.
    """

    def __init__(
        self,
        view: PlacementView,
        self_label: str,
        seeds: tuple[Member, ...] = (),
        interval: float = DEFAULT_PROBE_INTERVAL,
        suspect_after: float | None = None,
        remove_after: float | None = None,
        indirect: int = DEFAULT_INDIRECT_PROBES,
        timeout: float = 2.0,
        connect: Any | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        rng: random.Random | None = None,
        install: Callable[[str, bytes], bool] | None = None,
    ) -> None:
        self._view = view
        self._install = install
        self._self_label = self_label
        self._seeds = tuple(seeds)
        self.interval = interval
        self.suspect_after = (
            suspect_after if suspect_after is not None else 3.0 * interval
        )
        self.remove_after = (
            remove_after if remove_after is not None else DEFAULT_REMOVE_AFTER
        )
        self.indirect = max(0, indirect)
        self._events = events if events is not None else EventLog()
        self._pool = ConnectionPool(
            timeout=timeout, connect=connect, events=self._events
        )
        self._pool.remember(self._seeds)
        self._rng = rng if rng is not None else random.Random()
        metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self._h_probe = metrics.histogram("repro_gossip_probe_seconds")
        self._m_suspects = metrics.counter("repro_gossip_suspects_total")
        self._m_refutes = metrics.counter("repro_gossip_refutes_total")
        self._m_down = metrics.counter("repro_gossip_down_total")
        metrics.gauge("repro_view_epoch", read=lambda: view.epoch or 0)
        self._suspected_at: dict[str, float] = {}
        self._down_at: dict[str, float] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Announce this member alive and start the probe loop.

        A seeded agent joins a running ring: it adopts a seed's view and
        prefetches (:meth:`_join`) before it announces.  That blocks on
        the network, so call this off the event loop.
        """
        if self._thread is not None:
            return
        prefetched = self._join() if self._seeds else None
        self._view.note_alive(self._self_label)
        if prefetched is not None:
            self._events.emit(
                "member-joined", member=self._self_label, prefetched=prefetched
            )
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"gossip:{self._self_label}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        self._pool.close()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.step()
            except Exception:  # pragma: no cover - the loop must survive
                pass

    # -- joining -------------------------------------------------------------

    def _join(self) -> int:
        """Adopt a seed's view, then prefetch; returns artifacts installed.

        The seed is read with a plain ``health``: no gossip rides on it,
        so this member is not announced until :meth:`start` does so.
        """
        members: list[str] = []
        for seed in self._seeds:
            label = member_label(seed)
            if label == self._self_label:
                continue
            try:
                reply = self._request(label, lambda client: client.health())
            except (OSError, ProtocolError, ServerError):
                continue
            self.merge_wire(reply.get("gossip"))
            members = [
                m for m in reply.get("members") or []
                if isinstance(m, str) and m and m != self._self_label
            ]
            if members:
                break
        if not members or self._install is None:
            return 0
        return self._prefetch(members)

    def _prefetch(self, members: list[str]) -> int:
        """Install, hottest first, every fingerprint on the *members*'
        ``hot`` lists that this member will own once it joins them."""
        counts: Counter[str] = Counter()
        holders: dict[str, list[str]] = {}
        for label in members:
            try:
                stats = self._request(label, lambda client: client.stats())
            except (OSError, ProtocolError, ServerError):
                continue
            for entry in stats.get("hot") or []:
                if (
                    isinstance(entry, list)
                    and len(entry) == 2
                    and isinstance(entry[0], str)
                    and isinstance(entry[1], int)
                ):
                    counts[entry[0]] += entry[1]
                    holders.setdefault(entry[0], []).append(label)
        if not counts:
            return 0
        try:
            future = ShardRing(
                [parse_member(label) for label in (*members, self._self_label)],
                vnodes=self._view.vnodes,
                replica_count=self._view.replica_count,
            )
        except ValueError:  # a member label that does not parse
            return 0
        installed = 0
        assert self._install is not None
        for fingerprint, _count in counts.most_common():
            owners = {member_label(m) for m in future.owners(fingerprint)}
            if self._self_label not in owners:
                continue
            for source in holders[fingerprint]:
                try:
                    blob = self._request(
                        source,
                        lambda client: client.get_artifact(fingerprint),
                    )
                except (OSError, ProtocolError, ServerError):
                    continue
                if self._install(fingerprint, blob):
                    installed += 1
                break
        return installed

    # -- wire payloads -------------------------------------------------------

    def gossip_payload(self) -> dict[str, Any]:
        """This view's full epoch-stamped table, ready for the wire."""
        return self._view.gossip_delta()

    def merge_wire(self, payload: Any) -> list[str]:
        """Merge a gossip object received on the wire (loose: anything
        malformed is ignored), then defend this member's own liveness
        and re-sync pool quarantines."""
        changed: list[str] = []
        if isinstance(payload, dict):
            epoch = payload.get("epoch")
            changed = self._view.merge_delta(
                payload.get("members") or [],
                epoch=epoch if isinstance(epoch, int) else None,
            )
        if changed:
            self._defend_self()
            self._sync_pool()
        return changed

    # -- one round -----------------------------------------------------------

    def step(self) -> None:
        """One gossip round: probe a random peer, then sweep lifecycles."""
        peer = self._pick_peer()
        if peer is not None:
            self._probe(peer)
        self._defend_self()
        self._sweep()
        self._sync_pool()

    def _pick_peer(self) -> str | None:
        peers = [
            label
            for label, (status, _inc) in self._view.membership().items()
            if label != self._self_label and status != "down"
        ]
        if not peers:
            seeds = [
                member_label(m)
                for m in self._seeds
                if member_label(m) != self._self_label
            ]
            if not seeds:
                return None
            return self._rng.choice(seeds)
        return self._rng.choice(peers)

    def _probe(self, label: str) -> None:
        watch = Stopwatch()
        try:
            reply = self._request(
                label,
                lambda client: client.health(gossip=self.gossip_payload()),
            )
        except (OSError, ProtocolError, ServerError):
            self._on_probe_failure(label)
            return
        self._h_probe.observe(watch.seconds)
        self.merge_wire(reply.get("gossip"))
        # The peer answered in person: refute any standing rumor.
        status = self._view.member_status(label)
        if status is not None and status[0] != "alive":
            self._view.note_alive(label)

    def _on_probe_failure(self, label: str) -> None:
        """A failed direct probe: try *indirect* relays, then suspect."""
        helpers = [
            helper
            for helper, (status, _inc) in self._view.membership().items()
            if status == "alive" and helper not in (self._self_label, label)
        ]
        self._rng.shuffle(helpers)
        for helper in helpers[: self.indirect]:
            try:
                reply = self._request(
                    helper,
                    lambda client: client.probe(
                        label, gossip=self.gossip_payload()
                    ),
                )
            except (OSError, ProtocolError, ServerError):
                continue
            self.merge_wire(reply.get("gossip"))
            if reply.get("reachable"):
                # Alive, just not reachable from here — no suspicion.
                status = self._view.member_status(label)
                if status is not None and status[0] == "suspect":
                    self._view.note_alive(label)
                return
        if self._view.suspect(label):
            self._suspected_at[label] = monotonic()
            self._m_suspects.inc()
            self._events.emit("member-suspect", member=label)

    def _request(self, label: str, fn: Any) -> dict[str, Any]:
        member = self._pool.address(label)
        if member is None:
            member = parse_member(label)
        return self._pool.request(member, fn)

    # -- lifecycle sweeps ----------------------------------------------------

    def _defend_self(self) -> None:
        """Refute a rumor about this member: alive at incarnation + 1."""
        status = self._view.member_status(self._self_label)
        if status is not None and status[0] != "alive":
            self._view.note_alive(self._self_label)
            self._m_refutes.inc()
            self._events.emit("member-refuted", member=self._self_label)

    def _sweep(self) -> None:
        """Confirm timed-out suspicions down; purge long-down members."""
        now = monotonic()
        for label, (status, _inc) in self._view.membership().items():
            if label == self._self_label:
                continue
            if status == "suspect":
                started = self._suspected_at.setdefault(label, now)
                if now - started >= self.suspect_after:
                    self._suspected_at.pop(label, None)
                    if self._view.confirm_down(label):
                        self._down_at[label] = now
                        self._m_down.inc()
                        self._events.emit("member-down", member=label)
            else:
                self._suspected_at.pop(label, None)
            if status == "down":
                started = self._down_at.setdefault(label, now)
                if self.remove_after and now - started >= self.remove_after:
                    self._down_at.pop(label, None)
                    if self._view.remove_member(label):
                        self._events.emit("member-removed", member=label)
            else:
                self._down_at.pop(label, None)

    def _sync_pool(self) -> None:
        """Align the probe pool's liveness with the membership table."""
        for label, (status, _inc) in self._view.membership().items():
            if label == self._self_label:
                continue
            try:
                member = self._pool.address(label) or parse_member(label)
            except ValueError:  # pragma: no cover - table labels parse
                continue
            if status == "down":
                if not self._pool.is_quarantined(member):
                    self._pool.quarantine(member)
            else:
                self._pool.lift_quarantine(member)
