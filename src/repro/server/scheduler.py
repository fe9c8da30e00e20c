"""Replica-aware corpus scheduling: spread one schema over its owners.

The potential-validity checks of a corpus are embarrassingly parallel
per document, and with ``replica_count=R`` every schema's compiled
artifact lives on R shards — yet the pre-scheduler ring pinned a whole
schema's corpus to its primary owner, leaving R-1 warm replicas idle.
:class:`CorpusScheduler` exploits that freedom:

* Under ``primary-first`` (the compatibility default) it reproduces the
  classic placement **byte-for-byte**: batches grouped by primary
  owner, each owner's batches run sequentially over its one connection,
  distinct owners in parallel — exactly what
  :meth:`~repro.server.ring.ShardedClient.check_corpus` always did.
* Under ``round-robin`` / ``least-inflight`` it splits each schema's
  document list into fixed-size **windows** and lets every live owner
  of that schema pull windows from a shared queue.  Work-stealing gives
  straggler hand-off for free: a fast replica keeps pulling while a
  slow one holds only its in-flight window, and a replica that **dies
  mid-corpus** has its window re-queued onto the survivors — zero
  failed checks, zero recompiles (the artifact was fanned out at
  compile time).

Compile-once is preserved by a **seed window**: the first window of
each schema goes through the client's normal routed path, which
performs the one honest compile (or hand-off) and fans the artifact out
to the whole replica set *before* the remaining windows land on the
other owners — so balanced reads add zero compiles ring-wide.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.server.placement import Member, member_label
from repro.server.protocol import READ_POLICIES

if TYPE_CHECKING:
    from repro.server.ring import ShardedClient

__all__ = ["DEFAULT_WINDOW", "CorpusScheduler"]

#: Documents per scheduling window.  Small enough that a skewed corpus
#: yields several windows per schema (the unit of spreading and of
#: re-queue on replica death), large enough that the per-window batch
#: round trip stays amortized.
DEFAULT_WINDOW = 16


def _failure_entry(error: Exception) -> tuple[None, dict[str, Any]]:
    """The structured per-batch failure shape of ``check_corpus``."""
    code = getattr(error, "code", None)
    if code is None:
        code = (
            "unreachable"
            if isinstance(error, (ConnectionError, OSError))
            else "internal"
        )
    return (
        None,
        {"ok": False, "error": {"code": code, "message": str(error)}},
    )


class CorpusScheduler:
    """Schedules a multi-schema corpus over a ring of replicated shards.

    Parameters
    ----------
    client:
        The :class:`~repro.server.ring.ShardedClient` that builds the
        scheduler.  The scheduler uses its fingerprint memo and its
        single-stream ``routed_batch`` — routed for seed windows and
        last-resort failover, pinned with ``member=`` to place a window
        — never ``check_batch``, which delegates *to* the scheduler.
        Every artifact-movement and epoch rule stays in the client's
        one routed call.
    policy:
        Read policy for this corpus; ``None`` follows the client's
        router policy.
    window:
        Documents per scheduling window (balanced policies only).
    """

    def __init__(
        self,
        client: ShardedClient,
        policy: str | None = None,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if policy is not None and policy not in READ_POLICIES:
            raise ValueError(
                f"unknown read policy {policy!r}; "
                f"expected one of {', '.join(READ_POLICIES)}"
            )
        self._client = client
        self._policy = policy
        self.window = max(1, window)

    # -- entry point ---------------------------------------------------------

    def run(
        self,
        batches: list[tuple],
        algorithm: str | None = None,
        root: str | None = None,
    ) -> list[tuple[list[dict[str, Any]] | None, dict[str, Any]]]:
        """Check every batch; results come back in *batches* order.

        Each batch is ``(dtd, docs)`` or ``(dtd, docs, root)``.  A batch
        that failed outright does not abort the rest: its entry is
        ``(None, {"ok": False, "error": ...})``, exactly like the
        routed corpus path always surfaced per-batch failures.
        """
        normalized: list[tuple[str, list[str], str | None]] = [
            (entry[0], entry[1], entry[2] if len(entry) > 2 else root)
            for entry in batches
        ]
        # Fingerprint everything upfront (memoized): an unparseable DTD
        # raises ``bad-dtd`` here, identically under every policy, before
        # any shard sees a byte.
        fingerprints = [
            self._client.fingerprint(dtd, batch_root)
            for dtd, _docs, batch_root in normalized
        ]
        policy = self._policy or self._client.read_policy
        if policy == "primary-first":
            return self._run_primary_first(normalized, fingerprints, algorithm)
        return self._run_balanced(normalized, fingerprints, algorithm)

    # -- the compatibility path ----------------------------------------------

    def _run_primary_first(
        self,
        normalized: list[tuple[str, list[str], str | None]],
        fingerprints: list[str],
        algorithm: str | None,
    ) -> list[tuple[list[dict[str, Any]] | None, dict[str, Any]]]:
        """Pin each schema to its primary: the classic corpus placement.

        Batches are grouped by owning shard and each shard's groups run
        sequentially over its one connection while distinct shards run
        concurrently (one thread per shard).
        """
        client = self._client
        by_member: dict[str, list[int]] = {}
        for index, fingerprint in enumerate(fingerprints):
            label = member_label(client.placement.primary(fingerprint))
            by_member.setdefault(label, []).append(index)
        results: list[Any] = [None] * len(normalized)

        def run(indexes: list[int]) -> None:
            for index in indexes:
                dtd, docs, batch_root = normalized[index]
                try:
                    results[index] = client.routed_batch(
                        dtd, docs, algorithm=algorithm, root=batch_root
                    )
                except Exception as error:  # noqa: BLE001 - surfaced in place
                    results[index] = _failure_entry(error)

        threads = [
            threading.Thread(target=run, args=(indexes,), daemon=True)
            for indexes in by_member.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    # -- the balanced path ---------------------------------------------------

    def _run_balanced(
        self,
        normalized: list[tuple[str, list[str], str | None]],
        fingerprints: list[str],
        algorithm: str | None,
    ) -> list[tuple[list[dict[str, Any]] | None, dict[str, Any]]]:
        results: list[Any] = [None] * len(normalized)
        # Concurrency is bounded by ring size, not corpus size: one
        # batch in flight per member keeps every shard busy, and a
        # thousand-schema corpus must not spawn a thousand threads
        # (each batch already adds up to R window workers of its own).
        concurrency = max(1, min(
            len(normalized), len(self._client.placement.members)
        ))
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            futures = [
                pool.submit(
                    self._run_batch,
                    index,
                    normalized[index],
                    fingerprints[index],
                    algorithm,
                    results,
                )
                for index in range(len(normalized))
            ]
        for index, future in enumerate(futures):
            try:
                future.result()
            except Exception as error:  # noqa: BLE001 - surfaced in place
                results[index] = _failure_entry(error)
        return results

    def _run_batch(
        self,
        index: int,
        batch: tuple[str, list[str], str | None],
        fingerprint: str,
        algorithm: str | None,
        results: list[Any],
    ) -> None:
        client = self._client
        dtd, docs, root = batch
        started = perf_counter()
        # Seed window through the routed path: the one honest compile
        # (or hand-off) happens here, and the client fans the artifact
        # out to the whole replica set before any other owner sees a
        # window — balanced reads must add zero compiles.
        seed_count = min(self.window, len(docs))
        try:
            seed_replies, seed_trailer = client.routed_batch(
                dtd, docs[:seed_count], algorithm=algorithm, root=root
            )
        except Exception as error:  # noqa: BLE001 - surfaced in place
            results[index] = _failure_entry(error)
            return
        replies: list[dict[str, Any] | None] = [None] * len(docs)
        replies[:seed_count] = seed_replies
        trailers: list[dict[str, Any]] = [seed_trailer]
        windows: deque[tuple[int, list[str]]] = deque(
            (offset, docs[offset : offset + self.window])
            for offset in range(seed_count, len(docs), self.window)
        )
        if windows:
            error = self._spread_windows(
                fingerprint, dtd, root, algorithm, windows, replies, trailers
            )
            if error is not None:
                results[index] = _failure_entry(error)
                return
        results[index] = (
            replies,
            self._merge_trailers(len(docs), trailers, started),
        )

    def _spread_windows(
        self,
        fingerprint: str,
        dtd: str,
        root: str | None,
        algorithm: str | None,
        windows: deque[tuple[int, list[str]]],
        replies: list[dict[str, Any] | None],
        trailers: list[dict[str, Any]],
    ) -> Exception | None:
        """Drain *windows* over every live owner; ``None`` on success.

        Work-stealing workers, one per live owner: each runs its window
        on its own shard, pulls the next, and repeats.  Every worker is
        handed its first window before any worker starts, so each
        worker's owner serves a window whatever order the threads run in.
        A worker whose shard dies re-queues its window for the survivors
        and exits; a non-transport server rejection aborts the batch
        (retrying it elsewhere would loop forever).  Windows left over
        after every owner died fall back to the client's routed path,
        which fails over beyond the replica set.
        """
        client = self._client
        lock = threading.Lock()
        rejection: list[Exception] = []
        requeues = client.telemetry.counter("repro_ring_requeues_total")
        steals = client.telemetry.counter("repro_ring_steals_total")
        primary_label = member_label(client.placement.primary(fingerprint))

        def worker(member: Member, window: tuple[int, list[str]]) -> None:
            label = member_label(member)
            while True:
                offset, window_docs = window
                try:
                    window_replies, trailer = client.routed_batch(
                        dtd, window_docs, algorithm=algorithm, root=root,
                        member=member,
                    )
                except (ConnectionError, OSError):
                    # The shard died mid-corpus: hand the window back to
                    # the survivors (zero failed checks) and retire this
                    # worker — the client already marked it down.
                    with lock:
                        windows.appendleft(window)
                    requeues.inc()
                    client.events.emit(
                        "window-requeued",
                        member=label,
                        offset=offset,
                        docs=len(window_docs),
                    )
                    return
                except Exception as error:  # noqa: BLE001 - surfaced in place
                    # A non-transport rejection (a ServerError, a garbled
                    # reply): retrying it elsewhere would loop forever,
                    # so it aborts the batch — never silently drops the
                    # window.
                    with lock:
                        rejection.append(error)
                    return
                if label != primary_label:
                    steals.inc()
                with lock:
                    replies[offset : offset + len(window_replies)] = (
                        window_replies
                    )
                    trailers.append(trailer)
                    if rejection or not windows:
                        return
                    window = windows.popleft()

        owners = client.router.owners(fingerprint)
        workers = [
            threading.Thread(
                target=worker, args=(member, windows.popleft()), daemon=True
            )
            for member in owners[: min(len(owners), len(windows))]
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        if rejection:
            return rejection[0]
        # Every owner died with windows still queued: the routed path
        # fails over down the full preference list (or raises the
        # structured unreachable error for the failure entry).
        while windows:
            offset, window_docs = windows.popleft()
            try:
                window_replies, trailer = client.routed_batch(
                    dtd, window_docs, algorithm=algorithm, root=root
                )
            except Exception as error:  # noqa: BLE001 - surfaced in place
                return error
            replies[offset : offset + len(window_replies)] = window_replies
            trailers.append(trailer)
        return None

    def _merge_trailers(
        self, items: int, trailers: list[dict[str, Any]], started: float
    ) -> dict[str, Any]:
        """One corpus-level trailer from the per-window server trailers.

        Keeps the shape routed callers rely on (``items`` / ``errors`` /
        ``schema`` / ``elapsed_ms``) and adds ``windows`` so operators
        can see the spread.  ``registry`` reports ``"miss"`` if any
        window compiled (at most the seed window can), else the seed's
        disposition.  ``elapsed_ms`` is the batch's **wall clock** —
        windows run concurrently on R shards, so summing their server
        times would overstate it by up to R×; the summed server-side
        time rides along as ``server_ms``.
        """
        errors = sum(trailer.get("errors", 0) for trailer in trailers)
        schema = dict(trailers[0].get("schema") or {})
        if any(
            (trailer.get("schema") or {}).get("registry") == "miss"
            for trailer in trailers
        ):
            schema["registry"] = "miss"
        merged: dict[str, Any] = {
            "ok": True,
            "op": "check-batch",
            "items": items,
            "errors": errors,
            "schema": schema,
            "elapsed_ms": round((perf_counter() - started) * 1000.0, 3),
            "server_ms": round(
                sum(trailer.get("elapsed_ms", 0.0) for trailer in trailers), 3
            ),
            "windows": len(trailers),
        }
        epochs = [t["epoch"] for t in trailers if isinstance(t.get("epoch"), int)]
        if epochs:
            merged["epoch"] = max(epochs)
        return merged
