"""Read routing over a placement view: which replica serves this read?

:class:`Router` turns a :class:`~repro.server.placement.PlacementView`
and a :class:`~repro.server.pool.ConnectionPool` into an ordered
candidate list per fingerprint, under a pluggable **read policy**
(:data:`~repro.server.protocol.READ_POLICIES`):

* ``primary-first`` — every read goes to the fingerprint's primary
  replica; the rest of the replica set is failover only.  This is the
  compatibility default: placement is byte-for-byte what the ring
  served before read balancing existed.
* ``round-robin`` — reads rotate across the live replica set,
  per-fingerprint, so a hot schema's load spreads evenly over its R
  owners.
* ``least-inflight`` — reads go to the live replica carrying the least
  load.  The load signal is **server-reported truth** when available:
  servers holding a ring view stamp ``{"inflight", "queue_depth"}``
  into every success reply and ``health`` answer, and the client feeds
  each stamp back via :meth:`Router.note_load`.  A fresh report scores
  a member as *its* reported load plus whatever this client has sent it
  since the report — so two clients balancing over the same replicas
  see each other's traffic, which client-local counters never could.
  Client-local in-flight counters remain the cold-start fallback (no
  report yet, a stale report, or ``prefer_reported`` switched off).

Whatever the policy, candidates beyond the live replica set are the
live remainder of the preference list (availability beats read
balance when a whole replica set is dark) and, with everything down,
the full preference list — an error beats silently giving up, and a
shard may have come back.

A router constructed with ``policy=None`` follows the policy the ring
advertises in its view (the ``read_policy`` its shards were started
with, ``serve --read-policy``), falling back to ``primary-first`` when none is advertised; an
explicit policy always wins over the advertised one.
"""

from __future__ import annotations

import threading
from collections import Counter
from time import monotonic
from typing import Any

from repro.lru import LRU
from repro.server.placement import Member, PlacementView, member_label
from repro.server.pool import ConnectionPool
from repro.server.protocol import READ_POLICIES

__all__ = [
    "DEFAULT_READ_POLICY",
    "READ_POLICIES",
    "REPORT_TTL",
    "Router",
]

#: The compatibility default: reads pin to the primary replica.
DEFAULT_READ_POLICY = "primary-first"

#: Bound on the per-fingerprint round-robin rotation table.
_ROTATION_SIZE = 1024

#: How long a server-reported load stamp stays authoritative, seconds.
#: Past this, ``least-inflight`` falls back to client-local counters —
#: a stale report (the member went quiet) must not pin routing forever.
REPORT_TTL = 5.0


class Router:
    """Orders read candidates per fingerprint under a read policy.

    The router owns the client-side load accounting the policies (and
    :meth:`stats snapshots <inflight>`) read: a per-member in-flight
    gauge (:meth:`begin` / :meth:`finish` bracket every routed call)
    and the per-member served-request counter.
    """

    def __init__(
        self,
        placement: PlacementView,
        pool: ConnectionPool,
        policy: str | None = None,
        metrics: Any | None = None,
    ) -> None:
        if policy is not None and policy not in READ_POLICIES:
            raise ValueError(
                f"unknown read policy {policy!r}; "
                f"expected one of {', '.join(READ_POLICIES)}"
            )
        self._placement = placement
        self._pool = pool
        self._explicit_policy = policy
        self._lock = threading.Lock()
        self._inflight: Counter[str] = Counter()
        self._requests: Counter[str] = Counter()
        self._rotation: LRU[str, int] = LRU(_ROTATION_SIZE)
        #: Whether ``least-inflight`` trusts fresh server-reported load
        #: stamps over client-local counters.  Public so benchmarks can
        #: build a client-counter-only control group.
        self.prefer_reported: bool = True
        # label -> (reported load, local inflight at report, timestamp):
        # the server's own inflight+queue_depth, plus the baseline that
        # lets the score add only the traffic sent *since* the report.
        self._reported: dict[str, tuple[int, int, float]] = {}
        # Exports each member's served count as
        # repro_ring_reads_total{member=...}, a read of _requests.
        self._metrics = metrics

    # -- policy --------------------------------------------------------------

    @property
    def policy(self) -> str:
        """The effective policy: explicit, else ring-advertised, else
        :data:`DEFAULT_READ_POLICY`."""
        if self._explicit_policy is not None:
            return self._explicit_policy
        advertised = self._placement.read_policy
        if advertised in READ_POLICIES:
            return advertised
        return DEFAULT_READ_POLICY

    @policy.setter
    def policy(self, policy: str | None) -> None:
        if policy is not None and policy not in READ_POLICIES:
            raise ValueError(
                f"unknown read policy {policy!r}; "
                f"expected one of {', '.join(READ_POLICIES)}"
            )
        self._explicit_policy = policy

    # -- candidate ordering --------------------------------------------------

    def candidates(self, fingerprint: str) -> list[Member]:
        """Failover order for *fingerprint* under the current policy.

        Live replicas first (ordered by the policy), then the live
        remainder of the preference list, then — with everything down —
        the full list.
        """
        preference = self._placement.preference(fingerprint)
        replica_count = self._placement.replica_count
        owners = preference[:replica_count]
        rest = preference[replica_count:]
        down = self._pool.down
        live_owners = [m for m in owners if member_label(m) not in down]
        live_rest = [m for m in rest if member_label(m) not in down]
        ordered = self._order(fingerprint, live_owners) + live_rest
        return ordered or preference

    def owners(self, fingerprint: str) -> list[Member]:
        """The live replica set of *fingerprint*, policy-ordered (every
        replica when all are down) — what a corpus scheduler spreads
        windows over."""
        owners = self._placement.owners(fingerprint)
        down = self._pool.down
        live = [m for m in owners if member_label(m) not in down]
        return self._order(fingerprint, live) or owners

    def _order(self, fingerprint: str, live: list[Member]) -> list[Member]:
        if len(live) <= 1:
            return live
        policy = self.policy
        if policy == "round-robin":
            with self._lock:
                turn = self._rotation.get(fingerprint, 0)
                self._rotation.put(fingerprint, turn + 1)
            start = turn % len(live)
            return live[start:] + live[:start]
        if policy == "least-inflight":
            now = monotonic()
            with self._lock:
                load = {
                    member_label(m): self._score_locked(member_label(m), now)
                    for m in live
                }
            # Stable: preference order breaks ties, so an idle ring
            # degrades to primary-first placement.
            return sorted(live, key=lambda m: load[member_label(m)])
        return live  # primary-first

    def _score_locked(self, label: str, now: float) -> int:
        """The least-inflight load score of *label* (lock held).

        A fresh server report wins: the member's own reported load plus
        the calls this client has put in flight since the report (its
        local in-flight delta over the report-time baseline).  Without
        a fresh report — cold start, stale stamp, or
        :attr:`prefer_reported` off — the client-local counter stands.
        """
        local = self._inflight[label]
        if self.prefer_reported:
            report = self._reported.get(label)
            if report is not None:
                reported, baseline, stamped_at = report
                if now - stamped_at <= REPORT_TTL:
                    return reported + max(0, local - baseline)
        return local

    # -- load accounting -----------------------------------------------------

    def note_load(self, member: Member, inflight: int, queue_depth: int = 0,
                  ) -> None:
        """Record a server-reported load stamp for *member*.

        Called by the ring client whenever a success reply or ``health``
        answer carries a ``"load"`` object.  The current client-local
        in-flight count is kept as the report's baseline, so scoring can
        add only the traffic sent after the server measured itself.
        """
        label = member_label(member)
        reported = max(0, int(inflight)) + max(0, int(queue_depth))
        with self._lock:
            self._reported[label] = (
                reported, self._inflight[label], monotonic()
            )

    def reported_load(self, member: Member) -> int | None:
        """The last fresh server-reported load of *member*, if any."""
        label = member_label(member)
        now = monotonic()
        with self._lock:
            report = self._reported.get(label)
            if report is None or now - report[2] > REPORT_TTL:
                return None
            return report[0]

    def begin(self, member: Member) -> None:
        """Note a routed call entering flight on *member*."""
        with self._lock:
            self._inflight[member_label(member)] += 1

    def finish(self, member: Member, served: bool = False) -> None:
        """Note a routed call leaving flight (*served* = it succeeded)."""
        label = member_label(member)
        with self._lock:
            self._inflight[label] -= 1
            if self._inflight[label] <= 0:
                del self._inflight[label]
            if not served:
                return
            first = label not in self._requests
            self._requests[label] += 1
        if first and self._metrics is not None:
            self._metrics.counter(
                "repro_ring_reads_total",
                read=lambda: self.requests_by_member[label],
                member=label,
            )

    @property
    def inflight(self) -> dict[str, int]:
        """Requests currently in flight per member label (a snapshot)."""
        with self._lock:
            return {label: n for label, n in self._inflight.items() if n > 0}

    @property
    def requests_by_member(self) -> dict[str, int]:
        """Requests served per member label (a snapshot)."""
        with self._lock:
            return dict(self._requests)

    def stats(self) -> dict[str, Any]:
        """JSON-ready routing counters."""
        with self._lock:
            return {
                "policy": self.policy,
                "inflight": {
                    label: n for label, n in self._inflight.items() if n > 0
                },
                "requests_by_member": dict(self._requests),
            }
