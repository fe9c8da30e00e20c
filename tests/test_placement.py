"""Tests for the placement core: PlacementView epochs, memo, disciplines."""

from __future__ import annotations

import pytest

from repro.server.placement import PlacementView, ShardRing, member_label
from repro.server.protocol import ProtocolError

MEMBERS = ["a.sock", "b.sock", "c.sock"]


class TestOwnersMemo:
    def test_owners_match_the_ring(self):
        view = PlacementView(MEMBERS, replica_count=2)
        ring = ShardRing(MEMBERS, replica_count=2)
        for key in (f"key-{i}" for i in range(50)):
            assert view.owners(key) == ring.owners(key)

    def test_memo_returns_a_copy(self):
        view = PlacementView(MEMBERS, replica_count=2)
        first = view.owners("key")
        first.append("mutated")
        assert view.owners("key") == view.ring.owners("key")

    def test_adoption_invalidates_the_memo(self):
        # The memo must never serve placement computed under an older
        # view — that is the bug class where a health-chased epoch bump
        # leaves a stale route to a removed member.
        view = PlacementView(MEMBERS, replica_count=1, epoch=1)
        keys = [f"key-{i}" for i in range(200)]
        before = {k: view.owners(k) for k in keys}  # memo warm
        removed = before[keys[0]][0]
        survivors = [m for m in MEMBERS if m != removed]
        assert view.adopt(survivors, epoch=2)
        for key in keys:
            assert removed not in view.owners(key)

    def test_direct_ring_mutation_invalidates_the_memo(self):
        # Tests and embedders drive scale events by mutating the ring in
        # place; the memo keys on the ring's version and must follow.
        view = PlacementView(MEMBERS, replica_count=1)
        keys = [f"key-{i}" for i in range(200)]
        before = {k: view.owners(k)[0] for k in keys}  # memo warm
        victim = before[keys[0]]
        view.ring.remove(victim)
        for key in keys:
            assert view.owners(key)[0] != victim

    def test_preference_survives_concurrent_membership_churn(self):
        # Routed calls race scale events by design (the ring property
        # invites direct mutation): a reader mid-walk must see either
        # the old or the new view, never crash on a half-applied one.
        import threading

        view = PlacementView(MEMBERS, replica_count=2)
        errors: list[Exception] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                try:
                    preference = view.preference("hot-key")
                    assert preference, "empty preference"
                    view.owners("hot-key")
                except Exception as error:  # noqa: BLE001 - collected
                    errors.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(300):
            view.ring.remove("c.sock")
            view.ring.add("c.sock")
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]

    def test_publish_invalidates_the_memo(self):
        view = PlacementView(MEMBERS, replica_count=1, epoch=1)
        keys = [f"key-{i}" for i in range(200)]
        owners_before = {k: view.owners(k)[0] for k in keys}
        removed = owners_before[keys[0]]
        survivors = [m for m in MEMBERS if m != removed]
        view.publish(2, survivors, replica_count=1)
        for key in keys:
            assert view.owners(key)[0] != removed


class TestClientDiscipline:
    def test_older_epoch_is_ignored(self):
        view = PlacementView(MEMBERS, epoch=5)
        assert view.adopt(["x.sock"], epoch=4) is False
        assert view.epoch == 5
        assert [member_label(m) for m in view.members] == sorted(MEMBERS)

    def test_equal_and_newer_epochs_are_adopted(self):
        view = PlacementView(MEMBERS, epoch=5)
        assert view.adopt(MEMBERS[:2], epoch=5)
        assert view.adopt(MEMBERS[:1], epoch=6)
        assert view.epoch == 6
        assert view.refreshes == 2

    def test_empty_member_list_is_ignored(self):
        view = PlacementView(MEMBERS, epoch=1)
        assert view.adopt([], epoch=9) is False
        assert view.epoch == 1
        assert len(view) == 3

    def test_epochless_adopt_rebuilds_without_stamping(self):
        view = PlacementView(MEMBERS)
        assert view.adopt(MEMBERS[:2])
        assert view.epoch is None
        assert view.refreshes == 0

    def test_adopt_fields_parses_a_wire_view(self):
        view = PlacementView(MEMBERS, epoch=1)
        assert view.adopt_fields(
            {
                "epoch": 3,
                "members": ["127.0.0.1:8750", "/run/pv.sock"],
                "replica_count": 2,
                "read_policy": "round-robin",
            }
        )
        assert view.epoch == 3
        assert view.replica_count == 2
        assert view.read_policy == "round-robin"
        assert ("127.0.0.1", 8750) in view.members

    def test_wire_view_without_a_policy_clears_a_learned_one(self):
        # A ring reverted to the default policy must take its clients
        # along: wire views always name their advertised policy, so an
        # absent field means "none advertised", not "keep the old one".
        view = PlacementView(MEMBERS, epoch=1, read_policy="round-robin")
        assert view.adopt_fields({"epoch": 2, "members": list(MEMBERS)})
        assert view.read_policy is None

    def test_plain_adopt_keeps_the_learned_policy(self):
        # A policy-free refresh (no wire view behind it) carries no
        # policy information and must not clear anything.
        view = PlacementView(MEMBERS, epoch=1, read_policy="round-robin")
        assert view.adopt(MEMBERS[:2], epoch=2)
        assert view.read_policy == "round-robin"
        assert view.adopt(MEMBERS[:2], epoch=3, read_policy=None)
        assert view.read_policy is None

    def test_adopt_fields_rejects_garbage(self):
        view = PlacementView(MEMBERS, epoch=1)
        assert view.adopt_fields({}) is False
        assert view.adopt_fields({"epoch": "3", "members": ["a"]}) is False
        assert view.adopt_fields({"epoch": 3, "members": []}) is False
        assert view.adopt_fields({"epoch": 3, "members": "a.sock"}) is False
        assert view.epoch == 1


class TestServerDiscipline:
    def test_publish_accepts_any_epoch_when_unpublished(self):
        view = PlacementView()
        assert view.details() is None
        assert view.as_tuple() is None
        view.publish(7, ["a", "b"], replica_count=2)
        assert view.as_tuple() == (7, ["a", "b"], 2)

    def test_older_publish_is_wrong_epoch_with_details(self):
        view = PlacementView()
        view.publish(5, ["a", "b"], replica_count=2,
                     read_policy="least-inflight")
        with pytest.raises(ProtocolError) as excinfo:
            view.publish(4, ["a"])
        assert excinfo.value.code == "wrong-epoch"
        assert excinfo.value.details == {
            "epoch": 5,
            "members": ["a", "b"],
            "replica_count": 2,
            "read_policy": "least-inflight",
        }

    def test_equal_epoch_with_different_contents_is_rejected(self):
        view = PlacementView()
        view.publish(5, ["a", "b"])
        with pytest.raises(ProtocolError):
            view.publish(5, ["a"])
        with pytest.raises(ProtocolError):
            view.publish(5, ["a", "b"], replica_count=2)
        with pytest.raises(ProtocolError):
            view.publish(5, ["a", "b"], read_policy="round-robin")

    def test_identical_republish_is_idempotent(self):
        view = PlacementView()
        view.publish(5, ["b", "a"], replica_count=2)
        view.publish(5, ["b", "a"], replica_count=2)  # no raise
        assert view.as_tuple() == (5, ["b", "a"], 2)

    def test_check_request_epoch(self):
        view = PlacementView()
        view.check_request_epoch(1)  # no view yet: everything passes
        view.publish(3, ["a"])
        view.check_request_epoch(None)  # epoch-less clients pass
        view.check_request_epoch(3)
        view.check_request_epoch(9)
        with pytest.raises(ProtocolError) as excinfo:
            view.check_request_epoch(2)
        assert excinfo.value.code == "wrong-epoch"
        assert excinfo.value.details["epoch"] == 3

    def test_published_member_order_is_preserved(self):
        # An installed view is compared verbatim on a re-install; it
        # must report members exactly as published, not re-sorted.
        view = PlacementView()
        view.publish(1, ["z", "a", "m"])
        assert view.as_tuple() == (1, ["z", "a", "m"], 1)
        assert view.details()["members"] == ["z", "a", "m"]
