"""Tests for the read-policy router and the connection pool."""

from __future__ import annotations

import pytest

from repro.server.client import ServerError
from repro.server.placement import PlacementView, member_label
from repro.server.pool import ConnectionPool
from repro.server.protocol import ProtocolError
from repro.server.router import DEFAULT_READ_POLICY, Router

MEMBERS = ["a.sock", "b.sock", "c.sock", "d.sock"]


def make_router(
    policy: str | None = None,
    replica_count: int = 2,
    read_policy: str | None = None,
) -> tuple[Router, PlacementView, ConnectionPool]:
    view = PlacementView(MEMBERS, replica_count=replica_count,
                         read_policy=read_policy)
    pool = ConnectionPool(connect=lambda member, timeout: None)
    router = Router(view, pool, policy=policy)
    return router, view, pool


class TestPolicySelection:
    def test_default_is_primary_first(self):
        router, _view, _pool = make_router()
        assert router.policy == DEFAULT_READ_POLICY == "primary-first"

    def test_explicit_policy_wins_over_advertised(self):
        router, _view, _pool = make_router(
            policy="least-inflight", read_policy="round-robin"
        )
        assert router.policy == "least-inflight"

    def test_policyless_router_follows_the_ring_advertisement(self):
        router, view, _pool = make_router(read_policy="round-robin")
        assert router.policy == "round-robin"
        # A later view without a policy keeps the last advertised one
        # (adopt only overwrites when the new view names a policy).
        view.adopt(MEMBERS[:3], epoch=2)
        assert router.policy == "round-robin"

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError):
            make_router(policy="sticky")
        router, _view, _pool = make_router()
        with pytest.raises(ValueError):
            router.policy = "sticky"

    def test_policy_is_settable(self):
        router, _view, _pool = make_router()
        router.policy = "round-robin"
        assert router.policy == "round-robin"
        router.policy = None
        assert router.policy == "primary-first"


class TestPrimaryFirst:
    def test_candidates_follow_preference_order(self):
        router, view, _pool = make_router()
        for key in (f"key-{i}" for i in range(30)):
            assert router.candidates(key) == view.preference(key)

    def test_down_members_filtered_live_rest_appended(self):
        router, view, pool = make_router()
        key = "some-key"
        preference = view.preference(key)
        pool.mark_down(preference[0])
        assert router.candidates(key) == preference[1:]

    def test_everything_down_returns_the_full_preference(self):
        router, view, pool = make_router()
        key = "some-key"
        for member in MEMBERS:
            pool.mark_down(member)
        assert router.candidates(key) == view.preference(key)


class TestRoundRobin:
    def test_rotation_cycles_the_live_owners(self):
        router, view, _pool = make_router(policy="round-robin")
        key = "hot-schema"
        owners = view.owners(key)
        firsts = [router.candidates(key)[0] for _ in range(6)]
        assert firsts == (owners * 3)[:6]  # a, b, a, b, a, b

    def test_rotation_is_per_fingerprint(self):
        router, _view, _pool = make_router(policy="round-robin")
        first_a = router.candidates("schema-a")[0]
        # Touching schema-b must not advance schema-a's rotation.
        router.candidates("schema-b")
        router.candidates("schema-b")
        assert router.candidates("schema-a")[0] != first_a

    def test_rotation_skips_down_owners(self):
        router, view, pool = make_router(policy="round-robin")
        key = "hot-schema"
        owners = view.owners(key)
        pool.mark_down(owners[0])
        firsts = {router.candidates(key)[0] for _ in range(4)}
        assert firsts == {owners[1]}

    def test_failover_tail_is_still_appended(self):
        router, view, _pool = make_router(policy="round-robin")
        key = "hot-schema"
        preference = view.preference(key)
        candidates = router.candidates(key)
        assert sorted(map(member_label, candidates)) == sorted(
            map(member_label, preference)
        )
        assert candidates[2:] == preference[2:]  # non-owners keep order


class TestLeastInflight:
    def test_idle_ring_degrades_to_primary_first(self):
        router, view, _pool = make_router(policy="least-inflight")
        key = "hot-schema"
        assert router.candidates(key) == view.preference(key)

    def test_loaded_primary_yields_to_the_idle_replica(self):
        router, view, _pool = make_router(policy="least-inflight")
        key = "hot-schema"
        primary, replica = view.owners(key)
        router.begin(primary)
        assert router.candidates(key)[0] == replica
        router.begin(replica)
        router.begin(replica)
        assert router.candidates(key)[0] == primary
        assert router.inflight == {
            member_label(primary): 1,
            member_label(replica): 2,
        }

    def test_finish_releases_load_and_counts_served(self):
        router, view, _pool = make_router(policy="least-inflight")
        member = view.owners("k")[0]
        router.begin(member)
        router.finish(member, served=True)
        assert router.inflight == {}
        assert router.requests_by_member == {member_label(member): 1}
        router.begin(member)
        router.finish(member, served=False)
        assert router.requests_by_member == {member_label(member): 1}

    def test_stats_shape(self):
        router, _view, _pool = make_router(policy="least-inflight")
        stats = router.stats()
        assert stats["policy"] == "least-inflight"
        assert stats["inflight"] == {}
        assert stats["requests_by_member"] == {}


class TestServerReportedLoad:
    """least-inflight prefers fresh server truth over local counters."""

    def test_fresh_report_beats_the_local_counter(self):
        router, view, _pool = make_router(policy="least-inflight")
        key = "hot-schema"
        primary, replica = view.owners(key)
        # Locally the primary looks idle, but it reports heavy load
        # (other clients' traffic the local counter can never see).
        router.note_load(primary, inflight=7, queue_depth=3)
        router.note_load(replica, inflight=0)
        assert router.candidates(key)[0] == replica
        assert router.reported_load(primary) == 10
        assert router.reported_load(replica) == 0

    def test_local_delta_since_the_report_is_added(self):
        router, view, _pool = make_router(policy="least-inflight")
        key = "hot-schema"
        primary, replica = view.owners(key)
        router.note_load(primary, inflight=1)
        router.note_load(replica, inflight=1)
        # Three calls sent to the replica *after* its report outweigh
        # the equal reported base: score = reported + local delta.
        for _ in range(3):
            router.begin(replica)
        assert router.candidates(key)[0] == primary

    def test_traffic_before_the_report_is_not_double_counted(self):
        router, view, _pool = make_router(policy="least-inflight")
        key = "hot-schema"
        primary, replica = view.owners(key)
        # Two local calls in flight, then the server reports a load that
        # already includes them: the baseline keeps the score at the
        # report, not report + 2.
        router.begin(primary)
        router.begin(primary)
        router.note_load(primary, inflight=2)
        router.note_load(replica, inflight=3)
        assert router.candidates(key)[0] == primary

    def test_stale_report_falls_back_to_the_local_counter(self):
        from repro.server import router as router_module

        router, view, _pool = make_router(policy="least-inflight")
        key = "hot-schema"
        primary, replica = view.owners(key)
        router.note_load(primary, inflight=50)
        # Age the report past the TTL by rewriting its timestamp.
        label = member_label(primary)
        reported, baseline, stamped = router._reported[label]
        router._reported[label] = (
            reported, baseline, stamped - router_module.REPORT_TTL - 1.0
        )
        assert router.reported_load(primary) is None
        assert router.candidates(key)[0] == primary  # local counter: 0
        router.begin(primary)
        assert router.candidates(key)[0] == replica

    def test_prefer_reported_off_is_the_client_counter_control(self):
        router, view, _pool = make_router(policy="least-inflight")
        router.prefer_reported = False
        key = "hot-schema"
        primary, replica = view.owners(key)
        router.note_load(primary, inflight=50)
        assert router.candidates(key)[0] == primary
        router.begin(primary)
        assert router.candidates(key)[0] == replica

    def test_negative_stamps_are_clamped(self):
        router, view, _pool = make_router(policy="least-inflight")
        member = view.owners("k")[0]
        router.note_load(member, inflight=-4, queue_depth=-1)
        assert router.reported_load(member) == 0


class _FakeClient:
    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


class TestConnectionPool:
    def test_client_is_cached_and_reused(self):
        made = []

        def connect(member, timeout):
            client = _FakeClient()
            made.append(client)
            return client

        pool = ConnectionPool(connect=connect)
        with pool.lock("a.sock"):
            first = pool.client("a.sock")
            assert pool.client("a.sock") is first
        assert len(made) == 1
        assert pool.is_down("a.sock") is False

    def test_mark_down_only_evicts_the_failed_client(self):
        pool = ConnectionPool(connect=lambda member, timeout: _FakeClient())
        with pool.lock("a.sock"):
            stale = pool.client("a.sock")
        pool.mark_down("a.sock", stale)
        assert stale.closed
        with pool.lock("a.sock"):
            fresh = pool.client("a.sock")
        assert pool.is_down("a.sock") is False  # reconnect revives
        # A stale failure report must not evict the healthy reconnect.
        pool.mark_down("a.sock", stale)
        with pool.lock("a.sock"):
            assert pool.client("a.sock") is fresh
        assert not fresh.closed

    def test_discard_drops_without_marking_down(self):
        pool = ConnectionPool(connect=lambda member, timeout: _FakeClient())
        with pool.lock("a.sock"):
            client = pool.client("a.sock")
            pool.discard("a.sock", client)
        assert client.closed
        assert pool.is_down("a.sock") is False

    def test_request_keeps_the_connection_after_a_clean_round_trip(self):
        made = []

        def connect(member, timeout):
            made.append(_FakeClient())
            return made[-1]

        pool = ConnectionPool(connect=connect)
        assert pool.request("a.sock", lambda client: client) is made[0]
        assert pool.request("a.sock", lambda client: client) is made[0]
        assert len(made) == 1 and not made[0].closed

    @pytest.mark.parametrize(
        "error",
        [ServerError("bad-request", "no"), ProtocolError("bad-reply", "garbled")],
    )
    def test_request_discards_on_a_failed_reply_without_a_down_mark(
        self, error
    ):
        made = []

        def connect(member, timeout):
            made.append(_FakeClient())
            return made[-1]

        def fail(client):
            raise error

        pool = ConnectionPool(connect=connect)
        with pytest.raises(type(error)):
            pool.request("a.sock", fail)
        assert made[0].closed
        assert pool.is_down("a.sock") is False
        # The next round trip opens a fresh connection.
        assert pool.request("a.sock", lambda client: client) is made[1]

    def test_request_marks_down_and_closes_on_a_transport_failure(self):
        pool = ConnectionPool(connect=lambda member, timeout: _FakeClient())
        leased = []

        def fail(client):
            leased.append(client)
            raise ConnectionResetError("peer reset")

        with pytest.raises(OSError):
            pool.request("a.sock", fail)
        assert leased[0].closed
        assert pool.is_down("a.sock") is True

    def test_request_marks_down_when_the_connect_fails(self):
        def refuse(member, timeout):
            raise ConnectionRefusedError("nobody home")

        pool = ConnectionPool(connect=refuse)
        with pytest.raises(OSError):
            pool.request("a.sock", lambda client: client)
        assert pool.is_down("a.sock") is True

    def test_addresses_are_remembered_by_label(self):
        pool = ConnectionPool(connect=lambda member, timeout: _FakeClient())
        pool.remember([("127.0.0.1", 8750), "/run/pv.sock"])
        assert pool.address("127.0.0.1:8750") == ("127.0.0.1", 8750)
        assert pool.address("/run/pv.sock") == "/run/pv.sock"
        assert pool.address("unknown") is None

    def test_close_closes_every_cached_connection(self):
        pool = ConnectionPool(connect=lambda member, timeout: _FakeClient())
        clients = []
        for member in ("a.sock", "b.sock"):
            with pool.lock(member):
                clients.append(pool.client(member))
        pool.close()
        assert all(client.closed for client in clients)
