"""Tests for the replica-aware CorpusScheduler (satellite coverage).

Three behaviors the ISSUE names explicitly: a skewed corpus spreads
over a schema's R owners, a replica dying mid-corpus re-queues its
windows onto survivors with zero failed checks, and ``primary-first``
reproduces the classic placement byte-for-byte.
"""

from __future__ import annotations

import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.server import scheduler
from repro.server.ring import ShardedClient, member_label
from repro.server.server import ServerThread

FIGURE1 = """
<!ELEMENT r (a+)>
<!ELEMENT a (b?, (c | f), d)>
<!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA | e)*>
<!ELEMENT e EMPTY>
<!ELEMENT f (c, e)>
"""
DOC_OK = "<r><a><b>A quick brown</b><c> fox</c> dog<e></e></a></r>"
DOC_BAD = "<r><a><b>A quick brown</b><e></e><c> fox</c> dog</a></r>"


def schema_text(index: int) -> str:
    return (
        f"<!ELEMENT r{index} (a{index}*)>"
        f"<!ELEMENT a{index} (#PCDATA)>"
    )


def doc_text(index: int) -> str:
    return f"<r{index}><a{index}>x</a{index}></r{index}>"


@pytest.fixture
def shard_handles(tmp_path):
    handles = [
        ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"), port=0).start()
        for i in range(3)
    ]
    yield handles
    for handle in handles:
        handle.stop()


@pytest.fixture
def shard_paths(shard_handles):
    return [handle.unix_path for handle in shard_handles]


def total_misses(handles) -> int:
    return sum(handle.server.registry.stats.misses for handle in handles)


def hot_count(handle, fingerprint: str) -> int:
    hot = dict(handle.server._hot_counts)
    return hot.get(fingerprint, 0)


class TestBalancedSpread:
    def test_skewed_corpus_spreads_over_the_replica_set(
        self, shard_handles, shard_paths
    ):
        # One hot schema, many documents: under round-robin the windows
        # must land on both owners — and compile exactly once ring-wide.
        docs = [DOC_OK, DOC_BAD] * 12
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            results = ring.check_corpus([(FIGURE1, docs)], window=3)
            fingerprint = ring.fingerprint(FIGURE1)
            owners = [member_label(m) for m in ring.ring.owners(fingerprint)]
            stats = ring.ring_stats
        replies, trailer = results[0]
        assert trailer["ok"] is True
        assert trailer["items"] == len(docs)
        assert trailer["errors"] == 0
        assert trailer["windows"] > 1
        verdicts = [r["potentially_valid"] for r in replies]
        assert verdicts == [True, False] * 12  # document order preserved
        # Both owners served schema traffic (the hot counter counts items
        # per fingerprint per shard).
        served = {
            path: hot_count(handle, fingerprint)
            for path, handle in zip(shard_paths, shard_handles)
        }
        assert all(served[owner] > 0 for owner in owners)
        for path in shard_paths:
            if path not in owners:
                assert served[path] == 0  # non-replicas never touched
        # Compile-once held despite the spread: the seed window compiled
        # (or handed off) once, the fan-out warmed the second owner.
        assert total_misses(shard_handles) == 1
        assert stats["compiles_observed"] == 1

    def test_least_inflight_also_spreads_and_compiles_once(
        self, shard_handles, shard_paths
    ):
        docs = [DOC_OK] * 18
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="least-inflight"
        ) as ring:
            results = ring.check_corpus([(FIGURE1, docs)], window=2)
        replies, trailer = results[0]
        assert trailer["items"] == 18 and trailer["errors"] == 0
        assert all(r["potentially_valid"] for r in replies)
        assert total_misses(shard_handles) == 1

    def test_multi_schema_balanced_corpus_compiles_each_once(
        self, shard_handles, shard_paths
    ):
        batches = [(schema_text(i), [doc_text(i)] * 8) for i in range(6)]
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            results = ring.check_corpus(batches, window=2)
        assert len(results) == 6
        for index, (replies, trailer) in enumerate(results):
            assert trailer["items"] == 8
            assert all(r["potentially_valid"] for r in replies)
        assert total_misses(shard_handles) == 6

    def test_balanced_spread_across_two_clients_stays_compile_once(
        self, shard_handles, shard_paths
    ):
        # A second client (fresh holder knowledge) spreading the same
        # schema must hand artifacts off, never recompile: the seed
        # window teaches it a holder before any window lands cold.
        docs = [DOC_OK] * 12
        with ShardedClient(shard_paths, replica_count=1) as first:
            first.check_batch(FIGURE1, docs[:2])
        assert total_misses(shard_handles) == 1
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as second:
            results = second.check_corpus([(FIGURE1, docs)], window=3)
        replies, trailer = results[0]
        assert trailer["errors"] == 0
        assert all(r["potentially_valid"] for r in replies)
        assert total_misses(shard_handles) == 1  # hand-off, not recompile

    def test_empty_docs_batch(self, shard_paths):
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            results = ring.check_corpus([(FIGURE1, [])])
        replies, trailer = results[0]
        assert replies == []
        assert trailer["items"] == 0

    def test_unknown_corpus_policy_is_rejected_loudly(self, shard_paths):
        # A typo must raise, not silently pick the balanced path.
        with ShardedClient(shard_paths) as ring:
            with pytest.raises(ValueError):
                ring.check_corpus(
                    [(FIGURE1, [DOC_OK])], read_policy="primary_first"
                )

    def test_balanced_trailer_reports_wall_clock_and_server_time(
        self, shard_paths
    ):
        docs = [DOC_OK] * 12
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            results = ring.check_corpus([(FIGURE1, docs)], window=3)
        _replies, trailer = results[0]
        # elapsed_ms is the batch wall clock; the concurrent per-window
        # server time (which can exceed it) rides along as server_ms.
        assert trailer["elapsed_ms"] > 0
        assert trailer["server_ms"] > 0
        assert trailer["windows"] > 1

    def test_bad_dtd_raises_early_under_every_policy(self, shard_paths):
        from repro.server.protocol import ProtocolError

        with ShardedClient(shard_paths, replica_count=2) as ring:
            for policy in ("primary-first", "round-robin", "least-inflight"):
                with pytest.raises(ProtocolError) as excinfo:
                    ring.check_corpus(
                        [("<!ELEMENT broken", [DOC_OK])], read_policy=policy
                    )
                assert excinfo.value.code == "bad-dtd"
            assert ring.ring_stats["requests_by_member"] == {}


class _SerialThread:
    """A thread whose ``start()`` runs its target to completion: the
    worst interleaving for a work-stealing spread."""

    def __init__(self, target, args=(), daemon=None):
        self._target = target
        self._args = args

    def start(self) -> None:
        self._target(*self._args)

    def join(self) -> None:
        pass


class TestFirstWindows:
    def test_every_owner_serves_a_window_whatever_the_thread_order(
        self, monkeypatch, shard_paths
    ):
        # Each owner's worker gets its first window before any worker
        # starts, so even a first worker that drains the queue before
        # the second one runs leaves the second owner a window.
        monkeypatch.setattr(
            scheduler,
            "threading",
            SimpleNamespace(Thread=_SerialThread, Lock=threading.Lock),
        )
        docs = [DOC_OK] * 64  # a 16-document seed window, then 3 windows
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            replies, trailer = ring.check_batch(FIGURE1, docs)
            fingerprint = ring.fingerprint(FIGURE1)
            owners = [member_label(m) for m in ring.ring.owners(fingerprint)]
            requests = ring.ring_stats["requests_by_member"]
        assert trailer["windows"] == 4
        assert all(reply["potentially_valid"] for reply in replies)
        # The seed window went to one owner; beyond it, each owner
        # served at least one window.
        assert sorted(requests) == sorted(owners)
        assert sum(requests.values()) == 4
        assert min(requests.values()) >= 2


class TestReplicaDeathMidCorpus:
    def test_dead_replica_requeues_windows_onto_survivors(
        self, shard_handles, shard_paths
    ):
        # Warm the schema so both owners hold the artifact, then kill a
        # replica the client still believes is up: its windows must be
        # re-queued onto the survivor — zero failed checks, zero
        # recompiles.
        docs = [DOC_OK, DOC_BAD] * 10
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            ring.check(FIGURE1, DOC_OK)  # compile + fan-out to both owners
            fingerprint = ring.fingerprint(FIGURE1)
            owners = [member_label(m) for m in ring.ring.owners(fingerprint)]
            victim = owners[0]
            shard_handles[shard_paths.index(victim)].stop()
            results = ring.check_corpus([(FIGURE1, docs)], window=2)
            stats = ring.ring_stats
        replies, trailer = results[0]
        assert trailer["ok"] is True
        assert trailer["errors"] == 0
        verdicts = [r["potentially_valid"] for r in replies]
        assert verdicts == [True, False] * 10  # zero failed checks
        assert victim in stats["down"]
        # The survivor answered from its fanned-out artifact: the one
        # honest compile is still the only one.
        survivors = [
            handle
            for path, handle in zip(shard_paths, shard_handles)
            if path != victim
        ]
        assert sum(h.server.registry.stats.misses for h in survivors) <= 1
        assert stats["compiles_observed"] == 1

    def test_every_member_down_is_a_failure_entry_not_a_hang(self, tmp_path):
        dead = [str(tmp_path / f"nobody-{i}.sock") for i in range(2)]
        ring = ShardedClient(
            dead, replica_count=2, read_policy="round-robin", timeout=2.0
        )
        results = ring.check_corpus([(FIGURE1, [DOC_OK] * 4)], window=2)
        replies, trailer = results[0]
        assert replies is None
        assert trailer["ok"] is False
        assert trailer["error"]["code"] == "unreachable"


class TestPrimaryFirstCompat:
    def test_primary_first_reproduces_the_classic_placement(
        self, shard_handles, shard_paths
    ):
        # Byte-for-byte compat: every batch is served by its primary
        # owner (one routed check-batch per batch, no windows), and the
        # per-member request distribution equals the primary grouping.
        batches = [(schema_text(i), [doc_text(i)] * 4) for i in range(8)]
        with ShardedClient(shard_paths, replica_count=2) as ring:
            assert ring.read_policy == "primary-first"
            expected = Counter(
                member_label(ring.ring.owner(ring.fingerprint(dtd)))
                for dtd, _docs in batches
            )
            results = ring.check_corpus(batches)
            stats = ring.ring_stats
        for index, (replies, trailer) in enumerate(results):
            assert trailer["items"] == 4
            assert "windows" not in trailer  # the server trailer, verbatim
            assert all(r["potentially_valid"] for r in replies)
        assert stats["requests_by_member"] == dict(expected)
        assert stats["failovers"] == 0

    def test_explicit_policy_override_per_corpus(
        self, shard_handles, shard_paths
    ):
        # A round-robin client can still run one corpus primary-first.
        docs = [DOC_OK] * 8
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            results = ring.check_corpus(
                [(FIGURE1, docs)], read_policy="primary-first"
            )
            fingerprint = ring.fingerprint(FIGURE1)
            primary = member_label(ring.ring.owner(fingerprint))
            stats = ring.ring_stats
        _replies, trailer = results[0]
        assert trailer["items"] == 8
        assert "windows" not in trailer
        assert stats["requests_by_member"] == {primary: 1}
