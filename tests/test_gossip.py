"""Tests for ring membership, which gossip alone owns: delta merges, the
gossip agent's SWIM lifecycle, the pool quarantine race, the wire compat
guarantees (a standalone server's replies are byte-identical), and ring
shards end to end: failure detection, joins with prefetch, and the view
a joiner advertises."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, counter_value, histogram_entries
from repro.server.gossip import GossipAgent
from repro.server.placement import PlacementView, member_label
from repro.server.pool import ConnectionPool

MEMBERS = ["a.sock", "b.sock", "c.sock"]


def entry(label: str, status: str, incarnation: int) -> dict:
    return {"member": label, "status": status, "incarnation": incarnation}


class TestDeltaMerge:
    """PlacementView.merge_delta: the convergence rules of the table."""

    def test_higher_incarnation_wins_regardless_of_status(self):
        view = PlacementView(MEMBERS, epoch=1)
        view.suspect("b.sock")
        assert view.merge_delta([entry("b.sock", "alive", 1)]) == ["b.sock"]
        assert view.member_status("b.sock") == ("alive", 1)
        # ... and a later *down* at a higher incarnation beats that.
        view.merge_delta([entry("b.sock", "down", 2)])
        assert view.member_status("b.sock") == ("down", 2)

    def test_equal_incarnation_later_lifecycle_status_wins(self):
        view = PlacementView(MEMBERS, epoch=1)
        assert view.merge_delta([entry("b.sock", "suspect", 0)])
        assert view.member_status("b.sock") == ("suspect", 0)
        # alive@0 does not supersede suspect@0 (that is what refutation
        # at incarnation + 1 is for).
        assert view.merge_delta([entry("b.sock", "alive", 0)]) == []
        assert view.merge_delta([entry("b.sock", "down", 0)]) == ["b.sock"]
        assert view.merge_delta([entry("b.sock", "suspect", 0)]) == []

    def test_refutation_wins_over_a_wandering_stale_suspicion(self):
        view = PlacementView(MEMBERS, epoch=1)
        view.suspect("b.sock")
        view.merge_delta([entry("b.sock", "alive", 1)])  # the refutation
        # The old rumor keeps gossiping for a while; it must never
        # resurrect the suspicion it lost to.
        assert view.merge_delta([entry("b.sock", "suspect", 0)]) == []
        assert view.member_status("b.sock") == ("alive", 1)

    def test_conflicting_concurrent_deltas_commute(self):
        deltas = [
            [entry("b.sock", "suspect", 0), entry("c.sock", "alive", 2)],
            [entry("b.sock", "alive", 1), entry("c.sock", "down", 2)],
        ]
        tables = []
        for ordering in (deltas, list(reversed(deltas))):
            view = PlacementView(MEMBERS, epoch=1)
            for delta in ordering:
                view.merge_delta(delta)
            tables.append(view.membership())
        assert tables[0] == tables[1]
        assert tables[0]["b.sock"] == ("alive", 1)
        assert tables[0]["c.sock"] == ("down", 2)

    def test_stale_epoch_is_not_adopted(self):
        view = PlacementView(MEMBERS, epoch=5)
        view.merge_delta([entry("b.sock", "suspect", 0)], epoch=2)
        assert view.epoch == 5

    def test_newer_carried_epoch_is_adopted(self):
        view = PlacementView(MEMBERS, epoch=5)
        view.merge_delta([entry("d.sock", "alive", 0)], epoch=9)
        assert view.epoch == 9
        assert "d.sock" in [member_label(m) for m in view.members]

    def test_join_under_a_stale_epoch_mints_a_new_one(self):
        # A joiner announces itself at epoch 1 into an epoch-5 ring: the
        # live set changed, so the merging shard must mint epoch 6 —
        # otherwise reply stamps would never pull clients to the join.
        view = PlacementView(MEMBERS, epoch=5)
        view.merge_delta([entry("d.sock", "alive", 0)], epoch=1)
        assert view.epoch == 6
        assert "d.sock" in [member_label(m) for m in view.members]

    def test_merged_down_leaves_the_ring(self):
        view = PlacementView(MEMBERS, replica_count=1, epoch=1)
        keys = [f"key-{i}" for i in range(100)]
        victim = member_label(view.owners(keys[0])[0])
        view.merge_delta([entry(victim, "down", 0)], epoch=2)
        for key in keys:
            assert member_label(view.owners(key)[0]) != victim
        # Down, not gone: the rumor keeps spreading until purged.
        assert view.member_status(victim) == ("down", 0)
        delta = view.gossip_delta()
        assert any(
            e["member"] == victim and e["status"] == "down"
            for e in delta["members"]
        )

    def test_malformed_entries_are_skipped(self):
        view = PlacementView(MEMBERS, epoch=1)
        assert (
            view.merge_delta(
                [
                    "not-a-dict",
                    {"member": "", "status": "alive", "incarnation": 0},
                    {"member": "d.sock", "status": "zombie", "incarnation": 0},
                    {"member": "d.sock", "status": "alive", "incarnation": -1},
                    {"member": "d.sock", "status": "alive"},
                    {"member": ":::", "status": "alive", "incarnation": 0},
                ]
            )
            == []
        )
        assert view.epoch == 1

    def test_lifecycle_epochs(self):
        # suspect mints nothing (the member is still routable); down,
        # refutation-from-down, join, and purge each mint exactly once.
        view = PlacementView(MEMBERS, epoch=1)
        assert view.suspect("b.sock")
        assert view.epoch == 1
        assert view.confirm_down("b.sock")
        assert view.epoch == 2
        assert view.note_alive("b.sock")
        assert view.member_status("b.sock") == ("alive", 1)
        assert view.epoch == 3
        assert view.note_alive("d.sock")  # join
        assert view.epoch == 4
        assert view.remove_member("d.sock")
        assert view.epoch == 5


class TestPartitionHealing:
    def exchange(self, left: PlacementView, right: PlacementView) -> None:
        right.merge_delta(**self.as_args(left.gossip_delta()))
        left.merge_delta(**self.as_args(right.gossip_delta()))

    @staticmethod
    def as_args(payload: dict) -> dict:
        return {"entries": payload["members"], "epoch": payload["epoch"]}

    def test_two_sides_converge_to_a_single_view(self):
        # A 2+1 partition: each side confirms the other down and mints
        # its own epochs.  On heal, the survivors' tables must merge to
        # one converged view on both sides — with the refutation step
        # (each side re-asserts itself) bringing everyone back alive.
        left = PlacementView(MEMBERS, epoch=1)
        right = PlacementView(MEMBERS, epoch=1)
        left.confirm_down("c.sock")
        right.confirm_down("a.sock")
        right.confirm_down("b.sock")

        for _ in range(4):  # a few gossip rounds
            self.exchange(left, right)
            # Every member defends itself when it learns of a rumor
            # (what each live agent's _defend_self does).
            for side, label in (
                (left, "a.sock"),
                (left, "b.sock"),
                (right, "c.sock"),
            ):
                if side.member_status(label)[0] != "alive":
                    side.note_alive(label)

        self.exchange(left, right)
        assert left.membership() == right.membership()
        assert left.epoch == right.epoch
        assert all(
            status == "alive" for status, _ in left.membership().values()
        )
        assert [member_label(m) for m in left.members] == sorted(MEMBERS)
        assert [member_label(m) for m in right.members] == sorted(MEMBERS)


class TestQuarantine:
    """The suspicion-path race: a mid-request reply must not resurrect
    a member the membership layer marked down."""

    def make_pool(self) -> ConnectionPool:
        class _FakeClient:
            def close(self) -> None:
                pass

        return ConnectionPool(connect=lambda member, timeout: _FakeClient())

    def test_mark_up_cannot_lift_a_quarantine(self):
        pool = self.make_pool()
        # The race: a request is mid-flight on b.sock when gossip
        # declares it down ...
        with pool.lock("b.sock"):
            pool.client("b.sock")
            pool.quarantine("b.sock")
            assert pool.is_down("b.sock")
        # ... and the reply lands a moment later: the success path's
        # mark_up must NOT bring the member back.
        pool.mark_up("b.sock")
        assert pool.is_down("b.sock")
        assert pool.is_quarantined("b.sock")

    def test_a_reconnect_cannot_lift_a_quarantine(self):
        pool = self.make_pool()
        pool.quarantine("b.sock")
        with pool.lock("b.sock"):
            pool.client("b.sock")  # connects fine — the host is up
        assert pool.is_down("b.sock")  # but the verdict stands

    def test_lift_quarantine_restores_the_member(self):
        events: list[str] = []

        class _Sink:
            def write(self, line: str) -> None:
                events.append(json.loads(line)["event"])

            def flush(self) -> None:
                pass

        pool = ConnectionPool(
            connect=lambda member, timeout: None, events=EventLog(_Sink())
        )
        pool.quarantine("b.sock")
        pool.lift_quarantine("b.sock")
        assert not pool.is_down("b.sock")
        assert not pool.is_quarantined("b.sock")
        assert events == ["member-down", "member-up"]
        pool.lift_quarantine("b.sock")  # idempotent
        assert events == ["member-down", "member-up"]

    def test_plain_liveness_cycle_is_unaffected(self):
        pool = self.make_pool()
        pool.mark_down("b.sock")
        pool.mark_up("b.sock")
        assert not pool.is_down("b.sock")


class _Network:
    """A scripted in-memory wire for GossipAgent tests.

    ``peers`` maps member label -> the peer's PlacementView (its gossip
    table answers with it).  ``dead`` members raise on any call;
    ``blocked`` members are unreachable *directly* from the agent but
    count as reachable for indirect probes (a one-way link failure).
    """

    def __init__(self) -> None:
        self.peers: dict[str, PlacementView] = {}
        self.dead: set[str] = set()
        self.blocked: set[str] = set()
        self.probe_relays: list[tuple[str, str]] = []

    def connect(self, member, timeout):
        return _FakeWireClient(self, member_label(member))

    def health(self, label: str, gossip) -> dict:
        if label in self.dead or label in self.blocked:
            raise OSError(f"{label} unreachable")
        view = self.peers[label]
        if isinstance(gossip, dict):
            view.merge_delta(gossip.get("members"), epoch=gossip.get("epoch"))
        return {"ok": True, "op": "health", "gossip": view.gossip_delta()}

    def probe(self, label: str, target: str, gossip) -> dict:
        if label in self.dead or label in self.blocked:
            raise OSError(f"{label} unreachable")
        self.probe_relays.append((label, target))
        view = self.peers[label]
        if isinstance(gossip, dict):
            view.merge_delta(gossip.get("members"), epoch=gossip.get("epoch"))
        return {
            "ok": True,
            "op": "probe",
            "target": target,
            "reachable": target in self.peers and target not in self.dead,
            "gossip": view.gossip_delta(),
        }


class _FakeWireClient:
    def __init__(self, network: _Network, label: str) -> None:
        self.network = network
        self.label = label

    def health(self, gossip=None):
        return self.network.health(self.label, gossip)

    def probe(self, target, gossip=None):
        return self.network.probe(self.label, target, gossip)

    def close(self) -> None:
        pass


class _EventCapture:
    def __init__(self) -> None:
        self.names: list[str] = []

    def write(self, line: str) -> None:
        self.names.append(json.loads(line)["event"])

    def flush(self) -> None:
        pass


def make_agent(
    members=MEMBERS,
    self_label="a.sock",
    network: _Network | None = None,
    **kwargs,
):
    import random

    network = network if network is not None else _Network()
    view = PlacementView(members, replica_count=2, epoch=1)
    for label in members:
        if label != self_label:
            network.peers.setdefault(
                label, PlacementView(members, replica_count=2, epoch=1)
            )
    capture = _EventCapture()
    metrics = MetricsRegistry()
    agent = GossipAgent(
        view,
        self_label,
        connect=network.connect,
        metrics=metrics,
        events=EventLog(capture),
        rng=random.Random(7),
        **kwargs,
    )
    return agent, view, network, capture, metrics


class TestGossipAgent:
    def test_probe_merges_the_peer_table(self):
        agent, view, network, _events, metrics = make_agent(
            members=["a.sock", "b.sock"]
        )
        # The peer knows about a member (and an epoch) we do not.
        network.peers["b.sock"] = PlacementView(
            ["a.sock", "b.sock", "c.sock"], replica_count=2, epoch=3
        )
        agent.step()
        assert view.epoch == 3
        assert view.member_status("c.sock") == ("alive", 0)
        snapshot = metrics.snapshot()
        histogram = next(
            h
            for h in snapshot["histograms"]
            if h["name"] == "repro_gossip_probe_seconds"
        )
        assert histogram["count"] == 1
        gauge = next(
            g for g in snapshot["gauges"] if g["name"] == "repro_view_epoch"
        )
        assert gauge["value"] == 3.0

    def test_reachable_relay_prevents_the_suspicion(self):
        agent, view, network, events, _metrics = make_agent(
            members=["a.sock", "b.sock", "c.sock"]
        )
        network.blocked.add("b.sock")  # one-way failure: only we can't
        for _ in range(6):
            agent.step()
        assert view.member_status("b.sock")[0] == "alive"
        assert "member-suspect" not in events.names
        assert any(target == "b.sock" for _, target in network.probe_relays)

    def test_dead_member_is_suspected_then_confirmed_down(self):
        agent, view, network, events, metrics = make_agent(
            suspect_after=0.0
        )
        network.dead.add("b.sock")
        for _ in range(8):
            agent.step()
        assert view.member_status("b.sock")[0] == "down"
        assert "member-suspect" in events.names
        assert "member-down" in events.names
        snapshot = metrics.snapshot()
        assert counter_value(snapshot, "repro_gossip_suspects_total") == 1
        assert counter_value(snapshot, "repro_gossip_down_total") == 1
        # The ring reshaped under a freshly minted epoch ...
        assert view.epoch > 1
        labels = [member_label(m) for m in view.members]
        assert "b.sock" not in labels
        # ... and the agent's pool holds the sticky verdict.
        assert agent._pool.is_quarantined("b.sock")

    def test_down_member_is_purged_after_the_grace(self):
        agent, view, network, events, _metrics = make_agent(
            suspect_after=0.0, remove_after=0.01
        )
        network.dead.add("b.sock")
        deadline = time.monotonic() + 5.0
        while (
            view.member_status("b.sock") is not None
            and time.monotonic() < deadline
        ):
            agent.step()
            time.sleep(0.005)
        assert view.member_status("b.sock") is None
        assert "member-removed" in events.names

    def test_remove_after_zero_disables_purging(self):
        agent, view, network, _events, _metrics = make_agent(
            suspect_after=0.0, remove_after=0.0
        )
        network.dead.add("b.sock")
        for _ in range(8):
            agent.step()
            time.sleep(0.001)
        assert view.member_status("b.sock") == ("down", 0)

    def test_refutes_rumors_about_itself(self):
        agent, view, _network, events, metrics = make_agent()
        changed = agent.merge_wire(
            {
                "epoch": 5,
                "members": [entry("a.sock", "suspect", 0)],
            }
        )
        assert changed == ["a.sock"]
        assert view.member_status("a.sock") == ("alive", 1)
        assert "member-refuted" in events.names
        assert (
            counter_value(metrics.snapshot(), "repro_gossip_refutes_total")
            == 1
        )

    def test_returning_member_is_unquarantined(self):
        agent, view, network, _events, _metrics = make_agent(
            suspect_after=0.0
        )
        network.dead.add("b.sock")
        for _ in range(6):
            agent.step()
        assert agent._pool.is_quarantined("b.sock")
        network.dead.discard("b.sock")
        # The returned member re-announces at a bumped incarnation (what
        # its own agent's start()/defense does) and the news reaches us.
        agent.merge_wire(
            {"epoch": view.epoch, "members": [entry("b.sock", "alive", 1)]}
        )
        assert view.member_status("b.sock") == ("alive", 1)
        assert not agent._pool.is_quarantined("b.sock")
        assert not agent._pool.is_down("b.sock")

    def test_merge_wire_ignores_garbage(self):
        agent, view, _network, _events, _metrics = make_agent()
        assert agent.merge_wire(None) == []
        assert agent.merge_wire("nope") == []
        assert agent.merge_wire({"members": "nope"}) == []
        assert agent.merge_wire({"epoch": "9", "members": []}) == []
        assert view.epoch == 1

    def test_start_announces_and_stop_joins(self):
        agent, view, _network, _events, _metrics = make_agent(
            members=["b.sock"], self_label="a.sock", interval=0.05
        )
        try:
            agent.start()
            assert view.member_status("a.sock") == ("alive", 0)
        finally:
            agent.stop()
        assert agent._thread is None

    def test_two_live_agents_converge_after_a_partition(self):
        # Two real agents wired back-to-back through fake networks:
        # each side has declared the other down; their probe/merge loops
        # (driven synchronously via step()) must re-converge both views
        # to one all-alive table with a common epoch.
        import random

        view_a = PlacementView(["a.sock", "b.sock"], epoch=1)
        view_b = PlacementView(["a.sock", "b.sock"], epoch=1)
        view_a.confirm_down("b.sock")
        view_b.confirm_down("a.sock")

        net_a, net_b = _Network(), _Network()
        net_a.peers["b.sock"] = view_b  # a's wire reaches b's real view
        net_b.peers["a.sock"] = view_a

        # Each side holds the other *down*, so the probe loop falls back
        # to its seeds — that is exactly how a healed link is rediscovered.
        agent_a = GossipAgent(
            view_a,
            "a.sock",
            seeds=("b.sock",),
            connect=net_a.connect,
            rng=random.Random(1),
        )
        agent_b = GossipAgent(
            view_b,
            "b.sock",
            seeds=("a.sock",),
            connect=net_b.connect,
            rng=random.Random(2),
        )
        for _ in range(6):
            agent_a.step()
            agent_b.step()
        assert view_a.membership() == view_b.membership()
        assert all(
            status == "alive" for status, _ in view_a.membership().values()
        )
        assert view_a.epoch == view_b.epoch


# -- wire integration: servers, stamps, probes, compat ------------------------


from repro.server.client import ServerError, ValidationClient  # noqa: E402
from repro.server.ring import ShardedClient  # noqa: E402
from repro.server.server import ServerThread  # noqa: E402

DTD = "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>"
DOC = "<r><a>gossip</a></r>"


def schema_text(index: int) -> str:
    return (
        f"<!ELEMENT r{index} (a{index}*)>"
        f"<!ELEMENT a{index} (#PCDATA)>"
    )


def doc_text(index: int) -> str:
    return f"<r{index}><a{index}>x</a{index}></r{index}>"


class TestServerWireCompat:
    def test_solo_server_replies_are_byte_compatible(self, tmp_path):
        # No ring view, no gossip: the reply key set must be exactly the
        # pre-gossip one — no load stamp, no epoch, no gossip table.
        with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                reply = client.check(DTD, DOC)
                assert reply["ok"] is True
                for key in ("load", "epoch", "gossip"):
                    assert key not in reply
                health = client.health()
                assert "gossip" not in health
                replies, trailer = client.check_batch(DTD, [DOC, DOC])
                assert trailer["items"] == 2
                for obj in (*replies, trailer):
                    assert "load" not in obj and "epoch" not in obj

    def test_epoch_stamped_replies_carry_the_load(self, tmp_path):
        with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
            handle.server.set_ring_view(1, [handle.unix_path])
            with ValidationClient.connect_unix(handle.unix_path) as client:
                reply = client.check(DTD, DOC)
                load = reply["load"]
                assert isinstance(load["inflight"], int)
                assert isinstance(load["queue_depth"], int)
                # The stamp is taken as the reply is written, after
                # this request left flight — a settled server reports 0.
                assert load["inflight"] >= 0
                assert reply["epoch"] == 1
                health = client.health()
                assert isinstance(health["load"]["inflight"], int)
                _replies, trailer = client.check_batch(DTD, [DOC, DOC])
                assert isinstance(trailer["load"]["inflight"], int)

    def test_gossip_server_serves_and_merges_tables(self, tmp_path):
        other = str(tmp_path / "other.sock")
        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"),
            gossip_interval=30.0,  # the loop stays out of the way
        ) as handle:
            handle.join_ring()
            label = handle.unix_path
            with ValidationClient.connect_unix(label) as client:
                health = client.health()
                table = health["gossip"]
                assert table["epoch"] >= 1
                assert [e["member"] for e in table["members"]] == [label]
                # A peer announces another member; the shard merges it,
                # mints a new epoch, and gossips the join onward.
                reply = client.health(
                    gossip={
                        "epoch": table["epoch"],
                        "members": [entry(other, "alive", 0)],
                    }
                )
                merged = reply["gossip"]
                assert merged["epoch"] > table["epoch"]
                assert {e["member"] for e in merged["members"]} == {
                    label,
                    other,
                }
                assert other in reply["members"]

    def test_gossip_off_health_has_no_gossip_key(self, tmp_path):
        with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                reply = client.health(
                    gossip={"epoch": 1, "members": [entry("x.sock", "alive", 0)]}
                )
                assert reply["ok"] is True
                assert "gossip" not in reply

    def test_probe_op_reports_reachability(self, tmp_path):
        with ServerThread(unix_path=str(tmp_path / "a.sock")) as a:
            with ServerThread(unix_path=str(tmp_path / "b.sock")) as b:
                with ValidationClient.connect_unix(a.unix_path) as client:
                    reply = client.probe(b.unix_path)
                    assert reply["ok"] is True
                    assert reply["reachable"] is True
                    assert reply["target"] == b.unix_path
                    dark = client.probe(str(tmp_path / "nobody.sock"))
                    assert dark["reachable"] is False

    def test_probe_requires_a_target(self, tmp_path):
        with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.request({"op": "probe"})
                assert excinfo.value.code == "bad-request"


class TestRingClientCompat:
    @pytest.fixture
    def shard_handles(self, tmp_path):
        handles = [
            ServerThread(
                unix_path=str(tmp_path / f"shard-{i}.sock"), port=0
            ).start()
            for i in range(3)
        ]
        yield handles
        for handle in handles:
            handle.stop()

    def test_primary_first_check_batch_is_unchanged(self, shard_handles):
        # Under the compatibility default the public check_batch IS the
        # single-stream routed path — replica streaming never engages.
        paths = [h.unix_path for h in shard_handles]
        docs = [doc_text(0)] * 40  # > DEFAULT_WINDOW
        with ShardedClient(paths, replica_count=2) as ring:
            assert ring.read_policy == "primary-first"
            replies, trailer = ring.check_batch(schema_text(0), docs)
            again, again_trailer = ring.routed_batch(schema_text(0), docs)
            assert replies == again
            assert trailer["items"] == again_trailer["items"] == len(docs)
            by_member = ring.ring_stats["requests_by_member"]
            assert len(by_member) == 1  # one owner served both streams

    def test_balanced_check_batch_streams_across_replicas(self, shard_handles):
        paths = [h.unix_path for h in shard_handles]
        docs = [doc_text(1)] * 64  # > DEFAULT_WINDOW: scheduler engages
        with ShardedClient(
            paths, replica_count=2, read_policy="least-inflight"
        ) as ring:
            replies, trailer = ring.check_batch(schema_text(1), docs)
            assert trailer["items"] == len(docs)
            assert all(r["potentially_valid"] for r in replies)
            # Both replicas of the schema saw windows.
            by_member = ring.ring_stats["requests_by_member"]
            assert len(by_member) == 2
            # Compile-once held: the seed window did the one compile.
            stats = ring.stats()
            misses = sum(
                s["registry"]["misses"]
                for s in stats["shards"].values()
                if s
            )
            assert misses == 1

    def test_small_balanced_batches_stay_single_stream(self, shard_handles):
        paths = [h.unix_path for h in shard_handles]
        with ShardedClient(
            paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            replies, trailer = ring.check_batch(schema_text(2), [doc_text(2)])
            assert trailer["items"] == 1
            assert replies[0]["potentially_valid"] is True

    def test_ring_replies_feed_server_truth_to_the_router(self, shard_handles):
        paths = [h.unix_path for h in shard_handles]
        # Server truth only flows once the shards hold an epoch-stamped
        # view (stamps ride epoch-carrying replies).
        for handle in shard_handles:
            handle.server.set_ring_view(1, paths, replica_count=2)
        with ShardedClient(
            paths, replica_count=2, read_policy="least-inflight"
        ) as ring:
            reply = ring.check(schema_text(3), doc_text(3))
            assert reply["potentially_valid"] is True
            served = ring.router.requests_by_member
            (label,) = served.keys()
            assert ring.router.reported_load(label) is not None


# -- ring shards end to end: the one control plane ----------------------------


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

#: Fast probe rounds so suspect -> down fits a test timeout.
INTERVAL = 0.05


class _EventRecords:
    """An event sink keeping every event's fields."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def write(self, line: str) -> None:
        self.events.append(json.loads(line))

    def flush(self) -> None:
        pass

    def named(self, name: str) -> list[dict]:
        return [event for event in self.events if event["event"] == name]


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def _local_ring(tmp_path, count: int, replica_count: int = 1, **server_kwargs):
    """A ring started the way ``serve --ring N`` starts one: every shard
    bound, the full view installed at epoch 1, then the agents."""
    handles = [
        ServerThread(
            unix_path=str(tmp_path / f"shard-{i}.sock"),
            gossip_interval=INTERVAL,
            replica_count=replica_count,
            **server_kwargs,
        ).start()
        for i in range(count)
    ]
    paths = [handle.unix_path for handle in handles]
    for handle in handles:
        handle.server.set_ring_view(1, paths, replica_count)
    for handle in handles:
        handle.join_ring()
    return handles, paths


def _joiner_owning(tmp_path, paths, fingerprints, replica_count=1) -> str:
    """A joiner socket path that will own at least one of *fingerprints*
    (placement hashes the path, so it is salted deterministically)."""
    from repro.server.placement import ShardRing

    for salt in range(256):
        joiner = str(tmp_path / f"joiner-{salt}.sock")
        grown = ShardRing([*paths, joiner], replica_count=replica_count)
        if any(
            joiner in {member_label(m) for m in grown.owners(fp)}
            for fp in fingerprints
        ):
            return joiner
    raise AssertionError("no salt produced an owning joiner")


class TestRingMembership:
    def test_a_killed_member_leaves_the_view_and_the_client_follows(
        self, tmp_path
    ):
        handles, paths = _local_ring(tmp_path, 3, replica_count=2)
        try:
            with ShardedClient(paths, replica_count=2) as ring:
                assert ring.check(FIGURE1, DOC_OK)["potentially_valid"]
                assert ring.epoch == 1
                victim = member_label(ring.ring.owner(ring.fingerprint(FIGURE1)))
                index = paths.index(victim)
                handles[index].stop()
                survivors = handles[:index] + handles[index + 1:]

                def dropped() -> bool:
                    return all(
                        (h.server.placement.epoch or 0) > 1
                        and victim not in h.server.ring_view[1]
                        for h in survivors
                    )

                _wait_for(dropped)
                _wait_for(
                    lambda: len(
                        {h.server.placement.epoch for h in survivors}
                    ) == 1
                )
                epoch = survivors[0].server.placement.epoch
                reply = ring.check(FIGURE1, DOC_OK)
                assert reply["potentially_valid"] is True
                # Replica fan-out made the failover warm, and the client
                # converged on the epoch the survivors' gossip minted.
                assert reply["schema"]["registry"] == "hit"
                assert ring.epoch == epoch
                assert victim not in ring.ring_stats["members"]
        finally:
            for handle in handles:
                handle.stop()

    def test_a_shard_compiling_a_large_dtd_stays_alive_in_its_peers_views(
        self, tmp_path, monkeypatch
    ):
        # The compile runs off the shard's event loop, so the shard keeps
        # answering its peers' probes: a suspicion times out after three
        # gossip intervals, far inside the compile.  A probe waits out a
        # stalled loop for up to its 2 s socket timeout before failing,
        # so the probes' latency is what shows a loop held by the compile.
        import threading

        from test_hostile_schema import LARGE_DTD

        from repro.service import registry as registry_mod

        started = threading.Event()
        compile_schema = registry_mod.compile_schema

        def signalled(dtd, **kwargs):
            started.set()
            return compile_schema(dtd, **kwargs)

        monkeypatch.setattr(registry_mod, "compile_schema", signalled)
        records = _EventRecords()
        handles, paths = _local_ring(tmp_path, 3, events=EventLog(records))
        compiling, peers = paths[0], handles[1:]
        replies: list[dict] = []

        def check() -> None:
            with ValidationClient.connect_unix(compiling, timeout=120) as client:
                replies.append(client.check(LARGE_DTD, "<r><a></a></r>"))

        checker = threading.Thread(target=check)
        try:
            checker.start()
            assert started.wait(timeout=60)
            rounds = 0
            while checker.is_alive():
                for peer in peers:
                    status = peer.server.placement.member_status(compiling)
                    assert status is not None and status[0] == "alive"
                rounds += 1
                time.sleep(INTERVAL)
            registry = handles[0].server.registry.stats
            slowest = [
                max(
                    bound
                    for bound, count in zip(
                        [*entry["le"], float("inf")], entry["counts"]
                    )
                    if count
                )
                for peer in peers
                for entry in histogram_entries(
                    peer.server.metrics.snapshot(), "repro_gossip_probe_seconds"
                )
            ]
        finally:
            checker.join(timeout=120)
            for handle in handles:
                handle.stop()
        assert replies[0]["potentially_valid"] is True
        assert replies[0]["schema"]["registry"] == "miss"
        # The compile outlasted the suspicion timeout, and no peer's probe
        # waited on it: every probe bucket's bound is under half of it.
        assert registry.compile_seconds > 3 * INTERVAL
        assert rounds > 3
        assert len(slowest) == len(peers)
        assert max(slowest) < registry.compile_seconds / 2
        assert not [
            event for event in records.named("member-suspect")
            if event["member"] == compiling
        ]

    def test_a_joiner_serves_its_prefetched_schemas_warm(self, tmp_path):
        schemas = [schema_text(i) for i in range(8)]
        handles, paths = _local_ring(tmp_path, 3)
        records = _EventRecords()
        joiner = None
        try:
            with ShardedClient(paths) as ring:
                fingerprints = [ring.fingerprint(dtd) for dtd in schemas]
                for index, dtd in enumerate(schemas):
                    assert ring.check(dtd, doc_text(index))["ok"]
            joiner_path = _joiner_owning(tmp_path, paths, fingerprints)
            joiner = ServerThread(
                unix_path=joiner_path,
                gossip_interval=INTERVAL,
                events=EventLog(records),
            ).start()
            joiner.join_ring([paths[0]])
            [joined] = records.named("member-joined")
            registry = joiner.server.registry.stats
            assert joined["member"] == joiner_path
            assert joined["prefetched"] == registry.size >= 1
            assert registry.misses == 0
            everyone = [*paths, joiner_path]
            _wait_for(
                lambda: {
                    (h.server.placement.epoch, len(h.server.placement))
                    for h in (*handles, joiner)
                } == {(joiner.server.placement.epoch, 4)}
            )
            with ShardedClient(everyone) as ring:
                owned = [
                    index for index, fp in enumerate(fingerprints)
                    if member_label(ring.ring.owner(fp)) == joiner_path
                ]
                assert owned
                for index in owned:
                    reply = ring.check(schemas[index], doc_text(index))
                    assert reply["schema"]["registry"] == "hit"
            assert joiner.server.registry.stats.misses == 0
        finally:
            if joiner is not None:
                joiner.stop()
            for handle in handles:
                handle.stop()

    def test_a_join_prefetches_nothing_when_hot_lists_are_empty(
        self, tmp_path
    ):
        handles, paths = _local_ring(tmp_path, 2)
        records = _EventRecords()
        joiner = ServerThread(
            unix_path=str(tmp_path / "joiner.sock"),
            gossip_interval=INTERVAL,
            events=EventLog(records),
        ).start()
        try:
            joiner.join_ring([paths[0]])
            [joined] = records.named("member-joined")
            assert joined["prefetched"] == 0
            assert joiner.server.registry.stats.size == 0
        finally:
            joiner.stop()
            for handle in handles:
                handle.stop()


class TestJoinerAdvertisesItsOwnView:
    def test_a_seeded_joiner_reports_and_routes_its_replicas_and_policy(
        self, tmp_path
    ):
        # `serve --gossip-seed` with --replicas 2 --read-policy
        # least-inflight: the joiner advertises both, so a client whose
        # first contact with the ring is the joiner routes at R=2
        # least-inflight.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        base = str(tmp_path / "ring.sock")
        joiner = str(tmp_path / "joiner.sock")
        ring_flags = ["--replicas", "2", "--read-policy", "least-inflight",
                      "--gossip-interval", str(INTERVAL), "--no-tcp"]
        serve = [sys.executable, "-m", "repro", "serve"]
        processes = [
            subprocess.Popen(
                [*serve, "--ring", "2", "--unix", base, *ring_flags],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        ]
        try:
            _wait_for(lambda: os.path.exists(f"{base}.1"), timeout=30)
            processes.append(
                subprocess.Popen(
                    [*serve, "--unix", joiner, "--gossip-seed", f"{base}.0",
                     *ring_flags],
                    env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )

            def joined() -> bool:
                assert processes[1].poll() is None, "the joiner exited"
                try:
                    with ValidationClient.connect_unix(joiner) as client:
                        return len(client.health()["members"] or ()) == 3
                except OSError:
                    return False

            _wait_for(joined, timeout=30)
            with ValidationClient.connect_unix(joiner) as client:
                health = client.health()
            assert health["replica_count"] == 2
            assert health["read_policy"] == "least-inflight"
            with ShardedClient([joiner]) as ring:
                assert ring.check(FIGURE1, DOC_OK)["potentially_valid"]
                assert ring.placement.replica_count == 2
                assert ring.read_policy == "least-inflight"
                assert len(ring.placement) == 3
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.wait(timeout=10)
