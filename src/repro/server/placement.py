"""The placement core: one source of truth for who owns which schema.

Every component of the ring stack answers the same two questions — *which
members form the ring right now* (an epoch-stamped view) and *which of
them own a given schema fingerprint* (consistent hashing).  This module
is the single home for both:

* :class:`ShardRing` — a consistent-hash ring with virtual nodes and
  replica sets.  Pure placement arithmetic: no sockets, no epochs.
* :class:`PlacementView` — an epoch-stamped, thread-safe view over a
  ring: the members, the replica count, an optional advertised read
  policy, and a bounded fingerprint→owners memo.  It carries **both**
  reconciliation disciplines of the wire protocol:

  - the *client* discipline (:meth:`PlacementView.adopt`): newer epochs
    win, older ones are ignored — how a routing client converges after a
    ``wrong-epoch`` reply or a newer reply stamp;
  - the *server* discipline (:meth:`PlacementView.publish` /
    :meth:`PlacementView.check_request_epoch`): an installed view that
    does not supersede the held one raises ``wrong-epoch`` carrying the
    current view, and so does a request routed under an older epoch;
  - the *gossip* discipline (:meth:`PlacementView.merge_delta` /
    :meth:`PlacementView.gossip_delta` and the local transitions
    :meth:`PlacementView.suspect` / :meth:`PlacementView.confirm_down` /
    :meth:`PlacementView.note_alive`): a SWIM-style membership table
    (status + incarnation per member, suspect → down → removed
    lifecycle, refutation by incarnation bump) whose merges commute, so
    a ring's shards converge to one view with no publisher.

:class:`~repro.server.ring.ShardedClient`,
:class:`~repro.server.gossip.GossipAgent`, and
:class:`~repro.server.server.ValidationServer` all consume this module
instead of keeping their own copies of view/epoch handling.

Every adoption path — a ``wrong-epoch`` reply, a ``health``-chased
newer stamp, an explicit refresh, a direct :attr:`PlacementView.ring`
mutation — invalidates the owners memo, so a stale memo can never route
a fingerprint to a member that already left the ring.

Addresses are either a Unix socket path (``str``) or a ``(host, port)``
tuple; :func:`parse_member` turns CLI-style ``host:port`` strings into
the latter.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from typing import Any, Iterable

from repro.lru import LRU
from repro.server.protocol import ProtocolError

__all__ = [
    "DEFAULT_VNODES",
    "KEEP_POLICY",
    "MEMBER_STATUSES",
    "Member",
    "PlacementView",
    "ShardRing",
    "member_label",
    "parse_member",
]

#: A shard address: a Unix socket path or a ``(host, port)`` pair.
Member = Any

#: Virtual nodes per member.  More vnodes smooth the key distribution
#: (the std-dev of shard load shrinks like 1/sqrt(vnodes)) at the cost
#: of a longer sorted point array; 64 keeps a 3-shard ring within a few
#: percent of even.
DEFAULT_VNODES = 64

#: Bound on a view's fingerprint -> owners memo.
_OWNERS_MEMO_SIZE = 4096

#: Sentinel for :meth:`PlacementView.adopt`'s *read_policy*: keep the
#: policy already held (callers that carry no policy information at
#: all, like a plain membership refresh).  ``None``, by contrast, means
#: "this view advertises no policy" and clears a previously learned one.
KEEP_POLICY: Any = object()

#: The member lifecycle of the gossip membership table, in supersession
#: rank order: at equal incarnation, a later status wins a merge
#: (``down`` > ``suspect`` > ``alive``); a higher incarnation always
#: wins regardless of status — which is how a falsely suspected member
#: refutes (it re-asserts ``alive`` under a bumped incarnation).
MEMBER_STATUSES = ("alive", "suspect", "down")

_STATUS_RANK = {status: rank for rank, status in enumerate(MEMBER_STATUSES)}


def _supersedes(proposed: tuple[str, int], current: tuple[str, int]) -> bool:
    """SWIM-style entry precedence: incarnation first, then status rank."""
    status, incarnation = proposed
    current_status, current_incarnation = current
    if incarnation != current_incarnation:
        return incarnation > current_incarnation
    return _STATUS_RANK[status] > _STATUS_RANK[current_status]


def member_label(member: Member) -> str:
    """The canonical display / hashing label of a member address."""
    if isinstance(member, tuple):
        host, port = member
        return f"{host}:{port}"
    return str(member)


def parse_member(text: str) -> Member:
    """A CLI address string to a member: ``host:port`` or a socket path.

    Anything containing a path separator (or with no colon at all) is a
    Unix socket path; otherwise the last colon splits host from port.  A
    colon-bearing, separator-free string whose port is not a number is a
    typo, not a path — it raises :class:`ValueError` so the CLI can
    report bad usage instead of failing to connect to a phantom socket.
    """
    if "/" in text or ":" not in text:
        return text
    host, _, port_text = text.rpartition(":")
    try:
        return (host, int(port_text))
    except ValueError:
        raise ValueError(f"bad ring address {text!r}: port {port_text!r} "
                         "is not a number")


def _point(token: str) -> int:
    """A stable 64-bit position on the ring for *token*."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRing:
    """A consistent-hash ring with virtual nodes and replica sets.

    Keys (schema fingerprints, but any string works) map to the first
    member point at or clockwise after the key's own point.  Each member
    contributes *vnodes* points, so load spreads evenly and a membership
    change only remaps keys adjacent to the changed member's points.

    With ``replica_count=R`` each key maps to a **replica set** — the
    first R *distinct* members walking clockwise from the key
    (:meth:`owners`); the first is the primary.  Because the walk order
    is a pure function of the hash space, the set (and the failover
    order beyond it, :meth:`preference`) is deterministic and stays
    stable for surviving members under any membership change.  A ring
    smaller than R simply yields every member.

    Every membership mutation bumps :attr:`version`, the signal a
    :class:`PlacementView` uses to invalidate its owners memo.
    """

    def __init__(
        self,
        members: Iterable[Member] = (),
        vnodes: int = DEFAULT_VNODES,
        replica_count: int = 1,
    ) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        if replica_count < 1:
            raise ValueError("replica_count must be >= 1")
        self.vnodes = vnodes
        self.replica_count = replica_count
        self.version = 0
        self._members: dict[str, Member] = {}
        # Parallel arrays sorted by point: bisect runs on the ints alone.
        self._points: list[int] = []
        self._labels: list[str] = []
        for member in members:
            self.add(member)

    # -- membership ----------------------------------------------------------

    @property
    def members(self) -> list[Member]:
        """Current members, in label order (stable for display)."""
        return [self._members[label] for label in sorted(self._members)]

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: object) -> bool:
        return member_label(member) in self._members

    def add(self, member: Member) -> None:
        """Add *member* (idempotent)."""
        label = member_label(member)
        if label in self._members:
            return
        self._members[label] = member
        pairs = list(zip(self._points, self._labels))
        pairs.extend(
            (_point(f"{label}#{vnode}"), label)
            for vnode in range(self.vnodes)
        )
        pairs.sort()
        self._points = [point for point, _ in pairs]
        self._labels = [entry for _, entry in pairs]
        self.version += 1

    def remove(self, member: Member) -> None:
        """Remove *member* (a no-op when absent)."""
        label = member_label(member)
        if label not in self._members:
            return
        kept = [
            (point, entry)
            for point, entry in zip(self._points, self._labels)
            if entry != label
        ]
        # Rebuild the point arrays before dropping the member record:
        # a concurrent reader walking the old arrays (a routed call
        # racing a scale event) then still resolves every label it
        # meets — it sees the pre-removal view, never a KeyError.
        self._points = [point for point, _ in kept]
        self._labels = [entry for _, entry in kept]
        self._members.pop(label, None)
        self.version += 1

    # -- placement -----------------------------------------------------------

    def owner(self, key: str) -> Member:
        """The primary owner of *key* (raises when the ring is empty)."""
        return self.preference(key)[0]

    def owners(self, key: str) -> list[Member]:
        """The replica set of *key*: its first ``replica_count`` distinct
        members in preference order (all members when the ring is
        smaller than the replica count).  ``owners(key)[0]`` is the
        primary; ``put-artifact`` fan-out targets the whole list."""
        return self.preference(key)[: self.replica_count]

    def preference(self, key: str) -> list[Member]:
        """Every member, in deterministic failover order for *key*.

        The first entry is the owner; the rest are the distinct members
        encountered walking the ring clockwise from the key's point —
        the order a client tries when shards are unreachable, and
        the order that keeps failover placement as stable as primary
        placement under membership change.
        """
        # Snapshot the parallel arrays and the member map once: a racing
        # in-place mutation swaps in fresh lists, so this walk sees one
        # consistent (possibly just-superseded) view, and a label from a
        # stale array that no longer resolves is simply skipped.
        points, labels, members = self._points, self._labels, self._members
        if not points:
            raise ValueError("ring has no members")
        start = bisect_right(points, _point(key))
        seen: list[Member] = []
        seen_labels: set[str] = set()
        count = len(points)
        total = len(members)
        for offset in range(count):
            label = labels[(start + offset) % count]
            if label not in seen_labels:
                member = members.get(label)
                if member is None:
                    continue  # racing removal: the label left the map
                seen_labels.add(label)
                seen.append(member)
                if len(seen_labels) == total:
                    break
        if not seen:
            raise ValueError("ring has no members")
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = ", ".join(sorted(self._members))
        return (
            f"ShardRing([{labels}], vnodes={self.vnodes}, "
            f"replica_count={self.replica_count})"
        )


class PlacementView:
    """An epoch-stamped, thread-safe placement view over a ring.

    Parameters
    ----------
    members:
        The view's members (addresses or labels).  May be empty for a
        server that has not been published a view yet.
    replica_count:
        Replica-set size R of the view.
    vnodes:
        Virtual nodes per member for the underlying ring.
    epoch:
        The view's epoch, or ``None`` for "no view published/learned
        yet" (requests are then never epoch-gated).
    read_policy:
        The read policy advertised with the view (``None`` = none
        advertised); a routing client with no explicit policy follows
        this.

    The view memoizes the full :meth:`preference` walk per fingerprint
    (bounded LRU); :meth:`owners` is a slice of it, so both the hot
    routing lookup and the replica-set lookup hit the memo.  The memo
    is invalidated on **every** adoption (:meth:`adopt`,
    :meth:`adopt_fields`, :meth:`publish`) and on any direct mutation
    of :attr:`ring` (tracked through :attr:`ShardRing.version`), so
    stale placement can never be served after a membership change,
    regardless of which path delivered it.
    """

    def __init__(
        self,
        members: Iterable[Member] = (),
        replica_count: int = 1,
        vnodes: int = DEFAULT_VNODES,
        epoch: int | None = None,
        read_policy: str | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._ring = ShardRing(members, vnodes=vnodes,
                               replica_count=replica_count)
        self._published: list[Member] = list(self._ring.members)
        self._epoch = epoch
        self._read_policy = read_policy
        self._refreshes = 0
        self._memo: LRU[str, tuple[Member, ...]] = LRU(_OWNERS_MEMO_SIZE)
        self._memo_version = self._ring.version
        # The gossip membership table: label -> (status, incarnation).
        # ``alive`` and ``suspect`` members are in the ring; ``down``
        # members are out of it but stay in the table so the news keeps
        # spreading until they are purged (removed).
        self._membership: dict[str, tuple[str, int]] = {
            member_label(m): ("alive", 0) for m in self._ring.members
        }

    # -- the view ------------------------------------------------------------

    @property
    def ring(self) -> ShardRing:
        """The current placement ring.  Mutating it directly (tests and
        embedders do) is safe: the owners memo keys on the ring's
        version and drops itself on the next lookup."""
        with self._lock:
            return self._ring

    @property
    def epoch(self) -> int | None:
        with self._lock:
            return self._epoch

    @property
    def replica_count(self) -> int:
        return self.ring.replica_count

    @property
    def vnodes(self) -> int:
        return self.ring.vnodes

    @property
    def members(self) -> list[Member]:
        """The view's members as adopted/published (label-sorted)."""
        return self.ring.members

    @property
    def read_policy(self) -> str | None:
        with self._lock:
            return self._read_policy

    @property
    def refreshes(self) -> int:
        """How many epoch-stamped adoptions this view has performed."""
        with self._lock:
            return self._refreshes

    def __len__(self) -> int:
        return len(self.ring)

    # -- placement lookups ---------------------------------------------------

    def owners(self, key: str) -> list[Member]:
        """The replica set of *key* under the current view (memoized)."""
        preference = self.preference(key)
        return preference[: self.ring.replica_count]

    def preference(self, key: str) -> list[Member]:
        """Every member in deterministic failover order for *key*
        (memoized — this is the hot per-request lookup, and
        :meth:`owners` is its prefix)."""
        with self._lock:
            ring = self._ring
            if ring.version != self._memo_version:
                # The ring was mutated in place (scale events drive
                # add/remove directly): every cached walk is suspect.
                self._memo.clear()
                self._memo_version = ring.version
            cached = self._memo.get(key)
            if cached is not None:
                return list(cached)
        preference = ring.preference(key)
        with self._lock:
            if self._ring is ring and ring.version == self._memo_version:
                self._memo.put(key, tuple(preference))
        return preference

    def primary(self, key: str) -> Member:
        """The primary owner of *key*."""
        return self.ring.owner(key)

    # -- client-side reconciliation ------------------------------------------

    def adopt(
        self,
        members: Iterable[Member],
        epoch: int | None = None,
        replica_count: int | None = None,
        read_policy: str | None = KEEP_POLICY,
    ) -> bool:
        """Adopt a view (newer epochs win; older ones are ignored).

        An *epoch* older than the one already held returns ``False``
        untouched — two racing membership changes converge on the
        newest.  An empty member list is ignored too: an empty view
        routes nothing.  Adoption rebuilds the ring and **always**
        clears the owners memo.

        *read_policy* semantics: :data:`KEEP_POLICY` (the default)
        keeps whatever policy is already held — for callers that carry
        no policy information, like a plain membership refresh; a
        string adopts that policy; ``None`` clears the held one (the
        adopted view advertises no policy).
        """
        with self._lock:
            if (
                epoch is not None
                and self._epoch is not None
                and epoch < self._epoch
            ):
                return False
            new_ring = ShardRing(
                members,
                vnodes=self._ring.vnodes,
                replica_count=(
                    replica_count
                    if replica_count is not None
                    else self._ring.replica_count
                ),
            )
            if not len(new_ring):
                return False
            self._ring = new_ring
            self._published = list(new_ring.members)
            self._memo.clear()
            self._memo_version = new_ring.version
            self._reseed_membership_locked(new_ring.members)
            if epoch is not None:
                self._epoch = epoch
                self._refreshes += 1
            if read_policy is not KEEP_POLICY:
                self._read_policy = read_policy
            return True

    def adopt_fields(self, fields: dict[str, Any]) -> bool:
        """Adopt from a wire view: a ``wrong-epoch`` error object or a
        ``health`` reply.  Malformed fields are ignored (``False``).

        A wire view always names its advertised read policy when it has
        one, so an absent/invalid ``read_policy`` field means the ring
        advertises none — a previously learned policy is cleared, not
        kept (a ring reverted to default must take its clients along).
        """
        epoch = fields.get("epoch")
        members = fields.get("members")
        if not isinstance(epoch, int) or not isinstance(members, list):
            return False
        try:
            parsed = [parse_member(str(m)) for m in members if m]
        except ValueError:
            return False
        if not parsed:
            return False
        replica_count = fields.get("replica_count")
        read_policy = fields.get("read_policy")
        return self.adopt(
            parsed,
            epoch=epoch,
            replica_count=(
                replica_count if isinstance(replica_count, int) else None
            ),
            read_policy=(
                read_policy if isinstance(read_policy, str) else None
            ),
        )

    # -- server-side reconciliation ------------------------------------------

    def publish(
        self,
        epoch: int,
        members: list[str],
        replica_count: int = 1,
        read_policy: str | None = None,
    ) -> None:
        """Install a whole view under the server discipline (the local
        ring's start-up path, :meth:`ValidationServer.set_ring_view`).

        Raises :class:`~repro.server.protocol.ProtocolError` with code
        ``wrong-epoch`` when *epoch* is older than the view already
        held, **or** equal to it with different contents — one epoch
        must never name two views.  Installing the identical view again
        is idempotent.
        """
        with self._lock:
            proposed = (epoch, list(members), replica_count, read_policy)
            if self._epoch is not None:
                current = (
                    self._epoch,
                    list(self._published),
                    self._ring.replica_count,
                    self._read_policy,
                )
                if epoch < self._epoch or (
                    epoch == self._epoch and proposed != current
                ):
                    raise ProtocolError(
                        "wrong-epoch",
                        f"ring view epoch {epoch} does not supersede "
                        "the current view",
                        details=self._details_locked(),
                    )
            new_ring = ShardRing(
                members, vnodes=self._ring.vnodes, replica_count=replica_count
            )
            self._ring = new_ring
            self._published = list(members)
            self._memo.clear()
            self._memo_version = new_ring.version
            self._reseed_membership_locked(members)
            self._epoch = epoch
            self._read_policy = read_policy
            self._refreshes += 1

    def check_request_epoch(self, epoch: int | None) -> None:
        """Reject a request routed under an epoch older than this view.

        A request carrying no epoch (or arriving before any view was
        published) is always served — epochs tighten routing, they do
        not gate plain clients out.
        """
        with self._lock:
            current = self._epoch
            if current is None or epoch is None or epoch >= current:
                return
            details = self._details_locked()
        raise ProtocolError(
            "wrong-epoch",
            f"request epoch {epoch} is older than ring epoch {current}",
            details=details,
        )

    # -- gossip membership ----------------------------------------------------
    #
    # The SWIM-ish membership table every ring shard's gossip agent keeps.
    # Each member is (status, incarnation); entries merge under
    # :func:`_supersedes` (higher incarnation wins, then later
    # lifecycle status), so concurrent deltas applied in any order
    # converge to the same table on every shard.  Epoch discipline:
    # merging a delta only ever adopts the *maximum* of the held and
    # carried epochs, while **local** detections (a down confirmation, a
    # join, a purge — anything that changes the live set first-hand)
    # bump to held+1, so the shard that witnessed a change mints the new
    # epoch exactly once and everyone else converges to it via merges.

    def _reseed_membership_locked(self, members: Iterable[Member]) -> None:
        """Reset the table to *members*, all alive, keeping known
        incarnations (a refuted member must not regress to 0)."""
        self._membership = {
            label: ("alive", self._membership.get(label, ("alive", 0))[1])
            for label in (member_label(m) for m in members)
        }

    def _live_labels_locked(self) -> list[str]:
        return sorted(
            label
            for label, (status, _inc) in self._membership.items()
            if status != "down"
        )

    def _rebuild_from_membership_locked(self, bump: bool) -> None:
        live = self._live_labels_locked()
        new_ring = ShardRing(
            (parse_member(label) for label in live),
            vnodes=self._ring.vnodes,
            replica_count=self._ring.replica_count,
        )
        self._ring = new_ring
        self._published = list(new_ring.members)
        self._memo.clear()
        self._memo_version = new_ring.version
        if bump:
            self._epoch = (self._epoch or 0) + 1
            self._refreshes += 1

    def membership(self) -> dict[str, tuple[str, int]]:
        """A snapshot of the table: label -> (status, incarnation)."""
        with self._lock:
            return dict(self._membership)

    def member_status(self, member: Member) -> tuple[str, int] | None:
        """The (status, incarnation) of *member*, or ``None`` if unknown."""
        with self._lock:
            return self._membership.get(member_label(member))

    def gossip_delta(self) -> dict[str, Any]:
        """The full table as a wire gossip payload (piggybacked on
        ``health``/``probe`` traffic).  Full-state gossip: at the ring
        sizes this serves, the whole table is a few hundred bytes and
        true anti-entropy beats delta bookkeeping."""
        with self._lock:
            return {
                "epoch": self._epoch,
                "members": [
                    {"member": label, "status": status, "incarnation": inc}
                    for label, (status, inc) in sorted(
                        self._membership.items()
                    )
                ],
            }

    def merge_delta(
        self,
        entries: Iterable[dict[str, Any]] | None,
        epoch: int | None = None,
    ) -> list[str]:
        """Merge a gossiped table; returns the labels whose entry changed.

        Malformed entries are skipped.  Stale entries (superseded by
        what the table already holds) are ignored, so merges commute and
        a wandering old delta can never resurrect a refuted suspicion.
        The carried *epoch* is adopted when it is newer than the held
        one; when the merge changes the **live set** under an epoch
        that does *not* supersede the held view (a joiner announcing
        itself at epoch 1 into an older, higher-epoch ring), this view
        mints held+1 itself — a membership change must always surface
        as a new epoch so reply stamps pull clients to the new view.
        """
        changed: list[str] = []
        with self._lock:
            live_before = self._live_labels_locked()
            for entry in entries or []:
                if not isinstance(entry, dict):
                    continue
                label = entry.get("member")
                status = entry.get("status")
                incarnation = entry.get("incarnation")
                if (
                    not isinstance(label, str)
                    or not label
                    or status not in MEMBER_STATUSES
                    or not isinstance(incarnation, int)
                    or incarnation < 0
                ):
                    continue
                try:
                    parse_member(label)
                except ValueError:
                    continue
                proposed = (status, incarnation)
                current = self._membership.get(label)
                if current is not None and not _supersedes(proposed, current):
                    continue
                self._membership[label] = proposed
                changed.append(label)
            carried_newer = isinstance(epoch, int) and (
                self._epoch is None or epoch > self._epoch
            )
            if carried_newer:
                self._epoch = epoch
                self._refreshes += 1
            if changed and self._live_labels_locked() != live_before:
                self._rebuild_from_membership_locked(bump=not carried_newer)
        return changed

    def suspect(self, member: Member) -> bool:
        """Locally suspect *member* (alive -> suspect at the same
        incarnation).  Suspects stay in the ring — routing still tries
        them until the suspicion is confirmed — so no epoch is minted."""
        label = member_label(member)
        with self._lock:
            current = self._membership.get(label)
            if current is None or current[0] != "alive":
                return False
            self._membership[label] = ("suspect", current[1])
        return True

    def confirm_down(self, member: Member) -> bool:
        """Confirm *member* down (suspect/alive -> down at the same
        incarnation); drops it from the ring and mints a new epoch."""
        label = member_label(member)
        with self._lock:
            current = self._membership.get(label)
            if current is None or current[0] == "down":
                return False
            self._membership[label] = ("down", current[1])
            self._rebuild_from_membership_locked(bump=True)
        return True

    def note_alive(self, member: Member) -> bool:
        """Assert *member* alive, first-hand.

        A suspected or down member is refuted under a bumped
        incarnation, so the assertion supersedes the suspicion wherever
        it has already gossiped.  An unknown member joins (alive,
        incarnation 0) and mints a new epoch, as does a down member
        coming back; a suspect one merely clears (it never left the
        ring).  Returns ``True`` when the entry changed.
        """
        label = member_label(member)
        with self._lock:
            current = self._membership.get(label)
            if current is None:
                self._membership[label] = ("alive", 0)
                self._rebuild_from_membership_locked(bump=True)
                return True
            status, incarnation = current
            if status == "alive":
                return False
            self._membership[label] = ("alive", incarnation + 1)
            if status == "down":
                self._rebuild_from_membership_locked(bump=True)
        return True

    def remove_member(self, member: Member) -> bool:
        """Purge *member* from the table outright (the end of the
        suspect -> down -> removed lifecycle, or an operator's scale-in).
        Mints a new epoch when the member was still in the ring."""
        label = member_label(member)
        with self._lock:
            current = self._membership.pop(label, None)
            if current is None:
                return False
            if current[0] != "down":
                self._rebuild_from_membership_locked(bump=True)
        return True

    # -- wire shapes ---------------------------------------------------------

    def _details_locked(self) -> dict[str, Any] | None:
        if self._epoch is None:
            return None
        details: dict[str, Any] = {
            "epoch": self._epoch,
            "members": [member_label(m) for m in self._published],
            "replica_count": self._ring.replica_count,
        }
        if self._read_policy is not None:
            details["read_policy"] = self._read_policy
        return details

    def details(self) -> dict[str, Any] | None:
        """The view as wire fields (``wrong-epoch`` error-object /
        ``health`` reply shape), or ``None`` before any epoch is held."""
        with self._lock:
            return self._details_locked()

    def as_tuple(self) -> tuple[int, list[str], int] | None:
        """The legacy ``(epoch, member labels, replica_count)`` shape."""
        with self._lock:
            if self._epoch is None:
                return None
            return (
                self._epoch,
                [member_label(m) for m in self._published],
                self._ring.replica_count,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            labels = ", ".join(
                member_label(m) for m in self._published
            )
            return (
                f"PlacementView(epoch={self._epoch}, [{labels}], "
                f"replica_count={self._ring.replica_count})"
            )
