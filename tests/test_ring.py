"""Tests for the sharded validation ring, batch streaming, and hand-off."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.server import protocol
from repro.server.client import ServerError, ValidationClient, correlation_key
from repro.server.protocol import ProtocolError
from repro.server.ring import (
    ShardedClient,
    ShardRing,
    ShardUnavailableError,
    member_label,
    parse_member,
)
from repro.server.server import ServerThread
from repro.service.compiled import (
    ARTIFACT_FORMAT_VERSION,
    ARTIFACT_MAGIC,
    decode_artifact,
    encode_artifact,
)

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
    """A family of structurally distinct DTDs (distinct fingerprints)."""
    return (
        f"<!ELEMENT r{index} (a{index}*)>"
        f"<!ELEMENT a{index} (#PCDATA)>"
    )


def doc_text(index: int) -> str:
    return f"<r{index}><a{index}>x</a{index}></r{index}>"


# -- the ring ----------------------------------------------------------------


class TestShardRing:
    def test_owner_is_deterministic(self):
        ring = ShardRing(["a.sock", "b.sock", "c.sock"])
        again = ShardRing(["c.sock", "a.sock", "b.sock"])  # order-insensitive
        keys = [f"key-{i}" for i in range(200)]
        assert [ring.owner(k) for k in keys] == [again.owner(k) for k in keys]

    def test_distribution_is_roughly_even(self):
        members = ["a.sock", "b.sock", "c.sock"]
        ring = ShardRing(members)
        counts = Counter(ring.owner(f"key-{i}") for i in range(3000))
        for member in members:
            assert counts[member] >= 300  # >= 10% each on a 3-member ring

    def test_removal_only_remaps_the_removed_members_keys(self):
        members = ["a.sock", "b.sock", "c.sock", "d.sock"]
        ring = ShardRing(members)
        keys = [f"key-{i}" for i in range(1000)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("b.sock")
        for key in keys:
            if before[key] != "b.sock":
                assert ring.owner(key) == before[key]
            else:
                assert ring.owner(key) != "b.sock"

    def test_adding_back_restores_placement(self):
        ring = ShardRing(["a.sock", "b.sock", "c.sock"])
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("b.sock")
        ring.add("b.sock")
        assert {k: ring.owner(k) for k in keys} == before

    def test_preference_lists_every_member_once(self):
        members = ["a.sock", "b.sock", "c.sock"]
        ring = ShardRing(members)
        preference = ring.preference("some-fingerprint")
        assert sorted(preference) == sorted(members)
        assert preference[0] == ring.owner("some-fingerprint")

    def test_preference_is_stable_for_surviving_members(self):
        # Failover order, like ownership, must not shuffle when an
        # unrelated member leaves.
        ring = ShardRing(["a.sock", "b.sock", "c.sock", "d.sock"])
        key = "fingerprint-123"
        before = ring.preference(key)
        removed = before[-1]  # not the owner, not the first fallback
        ring.remove(removed)
        after = ring.preference(key)
        assert after == [m for m in before if m != removed]

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            ShardRing().owner("anything")

    def test_membership_helpers(self):
        ring = ShardRing(["a.sock"])
        assert "a.sock" in ring and len(ring) == 1
        ring.add("a.sock")  # idempotent
        assert len(ring) == 1
        ring.remove("missing.sock")  # no-op
        assert ring.members == ["a.sock"]

    def test_tcp_members_hash_by_label(self):
        ring = ShardRing([("127.0.0.1", 1), ("127.0.0.1", 2)])
        assert ("127.0.0.1", 1) in ring
        assert member_label(("127.0.0.1", 1)) == "127.0.0.1:1"

    def test_parse_member(self):
        assert parse_member("127.0.0.1:8750") == ("127.0.0.1", 8750)
        assert parse_member("/run/pv.sock") == "/run/pv.sock"
        assert parse_member("relative.sock") == "relative.sock"
        assert parse_member("./odd:name/pv.sock") == "./odd:name/pv.sock"

    def test_parse_member_rejects_a_port_typo(self):
        # "875O" (letter O) must be a loud usage error, not a silent
        # fallback to a phantom Unix socket path.
        with pytest.raises(ValueError):
            parse_member("127.0.0.1:875O")


# -- live shard fixtures -----------------------------------------------------


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


# -- artifact hand-off ops ---------------------------------------------------


class TestArtifactOps:
    def test_get_put_round_trip_between_servers(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as first:
            reply = first.check(FIGURE1, DOC_OK)
            fingerprint = reply["schema"]["fingerprint"]
            assert reply["schema"]["registry"] == "miss"
            blob = first.get_artifact(fingerprint)
        assert blob.startswith(
            f"{ARTIFACT_MAGIC} {ARTIFACT_FORMAT_VERSION}\n".encode()
        )
        with ValidationClient.connect_unix(shard_paths[1]) as second:
            put = second.put_artifact(fingerprint, blob)
            assert put["fingerprint"] == fingerprint and "stored" not in put
            # The seeded shard answers warm: no compile happened there.
            reply = second.check(FIGURE1, DOC_OK)
            assert reply["schema"]["registry"] == "hit"
            assert second.stats()["registry"]["misses"] == 0

    def test_get_unknown_fingerprint_is_artifact_miss(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            with pytest.raises(ServerError) as excinfo:
                client.get_artifact("f" * 64)
            assert excinfo.value.code == "artifact-miss"

    def test_put_garbage_blob_is_bad_artifact(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            with pytest.raises(ServerError) as excinfo:
                garbage = f"{ARTIFACT_MAGIC} {ARTIFACT_FORMAT_VERSION}\n".encode() + b"garbage"
                client.put_artifact("f" * 64, garbage)
            assert excinfo.value.code == "bad-artifact"

    def test_put_wrong_fingerprint_is_bad_artifact(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            fingerprint = client.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
            blob = client.get_artifact(fingerprint)
            with pytest.raises(ServerError) as excinfo:
                client.put_artifact("0" * 64, blob)
            assert excinfo.value.code == "bad-artifact"

    def test_put_bad_base64_is_bad_artifact(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            reply = client.send_raw(
                protocol.encode(
                    {"op": "put-artifact", "fingerprint": "f" * 64,
                     "artifact": "!!! not base64 !!!"}
                )
            )
            assert reply["error"]["code"] == "bad-artifact"

    def test_missing_fingerprint_is_bad_request(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            reply = client.send_raw(protocol.encode({"op": "get-artifact"}))
            assert reply["error"]["code"] == "bad-request"

    def test_put_older_version_blob_is_bad_artifact(self, shard_paths):
        """Only the current version decodes: a version-2 blob (the
        layout an older build shipped) is refused, and the shard then
        compiles for itself."""
        with ValidationClient.connect_unix(shard_paths[0]) as first:
            fingerprint = first.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
            blob = first.get_artifact(fingerprint)
        older = _with_version(blob, 2)
        with ValidationClient.connect_unix(shard_paths[1]) as second:
            with pytest.raises(ServerError) as excinfo:
                second.put_artifact(fingerprint, older)
            assert excinfo.value.code == "bad-artifact"
            reply = second.check(FIGURE1, DOC_OK)
            assert reply["schema"]["registry"] == "miss"
            assert reply["potentially_valid"] is True

    def test_wire_blob_decodes_to_the_held_artifact(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            fingerprint = client.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
            blob = client.get_artifact(fingerprint)
        schema = decode_artifact(blob, fingerprint)
        assert schema is not None and schema.fingerprint == fingerprint
        header = f"{ARTIFACT_MAGIC} {ARTIFACT_FORMAT_VERSION}\n".encode()
        assert encode_artifact(schema)[: len(header)] == header


def _with_version(blob: bytes, version: int) -> bytes:
    """*blob* with its header's format version replaced by *version*."""
    return f"{ARTIFACT_MAGIC} {version}\n".encode() + blob.split(b"\n", 1)[1]


# -- the streaming batch op --------------------------------------------------


class TestCheckBatch:
    def test_batch_round_trip(self, shard_paths):
        docs = [DOC_OK, DOC_BAD, DOC_OK]
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            replies, trailer = client.check_batch(FIGURE1, docs, id="batch-1")
        assert [r["potentially_valid"] for r in replies] == [True, False, True]
        assert all(r["op"] == "check-batch-item" for r in replies)
        assert [r["id"] for r in replies] == [0, 1, 2]
        assert trailer["items"] == 3
        assert trailer["errors"] == 0
        assert trailer["id"] == "batch-1"
        assert trailer["schema"]["registry"] == "miss"

    def test_batch_resolves_schema_once(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            _replies, trailer = client.check_batch(FIGURE1, [DOC_OK] * 5)
            stats = client.stats()
        assert trailer["schema"]["registry"] == "miss"
        assert stats["registry"]["misses"] == 1
        assert stats["server"]["batches"] == 1
        assert stats["server"]["batch_items"] == 5

    def test_bad_document_is_a_per_item_error(self, shard_paths):
        docs = [DOC_OK, "<r><a></r>", DOC_OK]
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            replies, trailer = client.check_batch(FIGURE1, docs)
            # The connection survives the defective item.
            assert client.check(FIGURE1, DOC_OK)["potentially_valid"]
        assert replies[0]["potentially_valid"] is True
        assert replies[1]["ok"] is False
        assert replies[1]["error"]["code"] == "bad-document"
        assert replies[1]["id"] == 1
        assert replies[2]["potentially_valid"] is True
        assert trailer["errors"] == 1

    def test_empty_batch(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            replies, trailer = client.check_batch(FIGURE1, [])
        assert replies == []
        assert trailer["items"] == 0

    def test_bad_header_is_a_structured_error_then_disconnect(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            with pytest.raises(ServerError) as excinfo:
                client.check_batch("<!ELEMENT broken", [DOC_OK])
            assert excinfo.value.code == "bad-dtd"
            # A bad batch header loses the item framing: the server
            # closes, which is the documented disconnect.
            with pytest.raises((ConnectionError, OSError)):
                client.check(FIGURE1, DOC_OK)

    def test_uncounted_batch_ends_on_blank_line(self, shard_paths):
        # Drive the raw wire form: a header without "count", items, then
        # the blank-line terminator.
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            client.send({"op": "check-batch", "dtd": FIGURE1}, flush=False)
            client.send({"doc": DOC_OK, "id": "x"}, flush=False)
            client.send({"doc": DOC_BAD, "id": "y"}, flush=False)
            client._file.write(b"\n")
            client._file.flush()
            first = client.recv()
            second = client.recv()
            trailer = client.recv()
        assert first["id"] == "x" and first["potentially_valid"] is True
        assert second["id"] == "y" and second["potentially_valid"] is False
        assert trailer["op"] == "check-batch" and trailer["items"] == 2

    def test_malformed_item_line_is_bad_item(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            client.send(
                {"op": "check-batch", "dtd": FIGURE1, "count": 2}, flush=False
            )
            client._file.write(b"this is { not json\n")
            client.send({"doc": DOC_OK})
            first = client.recv()
            second = client.recv()
            trailer = client.recv()
            # The connection survives for single-shot requests.
            assert client.check(FIGURE1, DOC_OK)["potentially_valid"]
        assert first["ok"] is False
        assert first["error"]["code"] == "bad-item"
        assert first["op"] == "check-batch-item"
        assert second["potentially_valid"] is True
        assert trailer["errors"] == 1

    def test_item_ids_are_echoed_including_falsy(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            client.send(
                {"op": "check-batch", "dtd": FIGURE1, "count": 3}, flush=False
            )
            for item_id in (0, False, ""):
                client.send({"doc": DOC_OK, "id": item_id}, flush=False)
            client._file.flush()
            ids = [client.recv()["id"] for _ in range(3)]
            client.recv()  # trailer
        assert ids == [0, False, ""]
        assert [correlation_key(i) for i in ids] == ["0", "false", '""']

    def test_doc_containing_the_op_literal_is_not_a_batch(self, shard_paths):
        # Batch detection keys on the decoded op, so a plain check whose
        # document text mentions "check-batch" stays a plain check.
        doc = "<r><a><c>check-batch</c><d>x</d></a></r>"
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            reply = client.check(FIGURE1, doc)
        assert reply["op"] == "check"
        assert reply["potentially_valid"] is True

    def test_json_escaped_op_string_is_still_a_batch(self, shard_paths):
        # A conforming encoder may escape any character: "check-batch"
        # decodes to the batch op and must enter the streaming read loop
        # (a byte-level sniff would misread the item lines as requests).
        header = (
            '{"op": "check\\u002dbatch", "dtd": ' + json.dumps(FIGURE1)
            + ', "count": 1}\n'
        ).encode("utf-8")
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            client._file.write(header)
            client.send({"doc": DOC_OK})
            item = client.recv()
            trailer = client.recv()
        assert item["op"] == "check-batch-item"
        assert item["potentially_valid"] is True
        assert trailer["op"] == "check-batch" and trailer["items"] == 1

    def test_batch_count_must_be_a_non_negative_int(self, shard_paths):
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            reply = client.send_raw(
                protocol.encode(
                    {"op": "check-batch", "dtd": FIGURE1, "count": -3}
                )
            )
        assert reply["error"]["code"] == "bad-request"


# -- pipelining --------------------------------------------------------------


class TestPipelining:
    def test_pipeline_correlates_falsy_ids(self, shard_paths):
        payloads = [
            {"op": "check", "dtd": FIGURE1, "doc": DOC_OK, "id": 0},
            {"op": "check", "dtd": FIGURE1, "doc": DOC_BAD, "id": False},
            {"op": "check", "dtd": FIGURE1, "doc": DOC_OK, "id": ""},
            {"op": "classify", "dtd": FIGURE1, "id": [1, "x"]},
        ]
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            replies = client.pipeline(payloads)
        assert [r["id"] for r in replies] == [0, False, "", [1, "x"]]
        assert replies[0]["potentially_valid"] is True
        assert replies[1]["potentially_valid"] is False
        assert replies[2]["potentially_valid"] is True
        assert replies[3]["op"] == "classify"

    def test_pipeline_error_replies_are_correlatable(self, shard_paths):
        payloads = [
            {"op": "check", "dtd": FIGURE1, "doc": DOC_OK, "id": "good"},
            {"op": "check", "dtd": "<!ELEMENT broken", "doc": DOC_OK,
             "id": "bad"},
            {"op": "check", "dtd": FIGURE1, "doc": DOC_OK, "id": "tail"},
        ]
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            replies = client.pipeline(payloads)
        assert replies[0]["ok"] is True and replies[0]["id"] == "good"
        assert replies[1]["ok"] is False and replies[1]["id"] == "bad"
        assert replies[1]["error"]["code"] == "bad-dtd"
        assert replies[2]["ok"] is True and replies[2]["id"] == "tail"

    def test_pipeline_without_ids_trusts_arrival_order(self, shard_paths):
        payloads = [
            {"op": "check", "dtd": FIGURE1, "doc": DOC_OK},
            {"op": "check", "dtd": FIGURE1, "doc": DOC_BAD},
        ]
        with ValidationClient.connect_unix(shard_paths[0]) as client:
            replies = client.pipeline(payloads)
        assert [r["potentially_valid"] for r in replies] == [True, False]

    def test_correlation_key_distinguishes_numeric_look_alikes(self):
        keys = {correlation_key(v) for v in (0, False, "", None, "0", 0.5)}
        assert len(keys) == 6


# -- the sharded client ------------------------------------------------------


class TestShardedClient:
    def test_routing_is_deterministic(self, shard_paths):
        with ShardedClient(shard_paths) as ring:
            first = ring.check(FIGURE1, DOC_OK)
            assert first["schema"]["registry"] == "miss"
            again = ring.check(FIGURE1, DOC_OK)
            assert again["schema"]["registry"] == "hit"
            by_member = ring.ring_stats["requests_by_member"]
        # Both requests landed on the one owning shard.
        assert sorted(by_member.values()) == [2]

    def test_each_schema_compiles_once_ring_wide(self, shard_paths):
        schemas = [schema_text(i) for i in range(8)]
        with ShardedClient(shard_paths) as ring:
            for _round in range(2):
                for index, dtd in enumerate(schemas):
                    reply = ring.check(dtd, doc_text(index))
                    assert reply["potentially_valid"] is True
            stats = ring.stats()
        total_misses = sum(
            shard["registry"]["misses"]
            for shard in stats["shards"].values()
            if shard is not None
        )
        assert total_misses == len(schemas)
        assert stats["ring"]["compiles_observed"] == len(schemas)

    def test_corpus_spreads_across_shards(self, shard_paths):
        schemas = [schema_text(i) for i in range(12)]
        with ShardedClient(shard_paths) as ring:
            owners = {
                member_label(ring.ring.owner(ring.fingerprint(dtd)))
                for dtd in schemas
            }
        # 12 schemas over 3 shards: statistically certain to touch >1
        # shard (and with this fixed family, all 3).
        assert len(owners) > 1

    def test_membership_change_hands_off_instead_of_recompiling(
        self, shard_handles
    ):
        paths = [handle.unix_path for handle in shard_handles]
        with ShardedClient(paths) as ring:
            ring.check(FIGURE1, DOC_OK)
            fingerprint = ring.fingerprint(FIGURE1)
            owner = ring.ring.owner(fingerprint)
            ring.ring.remove(owner)
            reply = ring.check(FIGURE1, DOC_OK)
        # The new owner answered warm from the handed-off artifact.
        assert reply["schema"]["registry"] == "hit"
        assert ring.ring_stats["handoffs"] == 1
        assert ring.ring_stats["handoff_bytes"] > 0
        # Ring-wide (including the departed shard, where the one honest
        # compile lives) nothing was ever compiled twice.
        total_misses = sum(
            handle.server.registry.stats.misses for handle in shard_handles
        )
        assert total_misses == 1

    def test_a_refused_hand_off_falls_back_to_compiling(
        self, shard_handles, monkeypatch
    ):
        """A holder that ships an older-version blob gets it refused
        (``bad-artifact``), and the new owner compiles for itself."""
        get_artifact = ValidationClient.get_artifact
        monkeypatch.setattr(
            ValidationClient, "get_artifact",
            lambda client, fingerprint: _with_version(
                get_artifact(client, fingerprint), 2
            ),
        )
        paths = [handle.unix_path for handle in shard_handles]
        with ShardedClient(paths) as ring:
            ring.check(FIGURE1, DOC_OK)
            owner = ring.ring.owner(ring.fingerprint(FIGURE1))
            ring.ring.remove(owner)
            reply = ring.check(FIGURE1, DOC_OK)
        assert reply["schema"]["registry"] == "miss"
        assert reply["potentially_valid"] is True
        assert ring.ring_stats["handoffs"] == 0
        total_misses = sum(
            handle.server.registry.stats.misses for handle in shard_handles
        )
        assert total_misses == 2

    def test_failover_when_a_shard_dies(self, shard_handles):
        paths = [handle.unix_path for handle in shard_handles]
        with ShardedClient(paths) as ring:
            ring.check(FIGURE1, DOC_OK)
            fingerprint = ring.fingerprint(FIGURE1)
            owner = ring.ring.owner(fingerprint)
            shard_handles[paths.index(owner)].stop()
            reply = ring.check(FIGURE1, DOC_OK)
            assert reply["potentially_valid"] is True
            assert ring.ring_stats["failovers"] == 1
            assert member_label(owner) in ring.ring_stats["down"]
            # Deterministic: the same fallback serves the repeat.
            again = ring.check(FIGURE1, DOC_OK)
            assert again["schema"]["registry"] == "hit"

    def test_all_shards_down_raises_connection_error(self, tmp_path):
        ring = ShardedClient([str(tmp_path / "nobody-home.sock")])
        with pytest.raises(ConnectionError):
            ring.check(FIGURE1, DOC_OK)

    def test_bad_dtd_raises_without_touching_the_ring(self, shard_paths):
        with ShardedClient(shard_paths) as ring:
            with pytest.raises(ProtocolError) as excinfo:
                ring.check("<!ELEMENT broken", DOC_OK)
            assert excinfo.value.code == "bad-dtd"
            assert ring.ring_stats["requests_by_member"] == {}

    def test_check_batch_routes_to_owner(self, shard_paths):
        with ShardedClient(shard_paths) as ring:
            replies, trailer = ring.check_batch(FIGURE1, [DOC_OK, DOC_BAD])
            assert [r["potentially_valid"] for r in replies] == [True, False]
            assert trailer["items"] == 2
            owner = member_label(ring.ring.owner(ring.fingerprint(FIGURE1)))
            assert ring.ring_stats["requests_by_member"] == {owner: 1}

    def test_check_corpus_parallel_fan_out(self, shard_paths):
        batches = [
            (schema_text(index), [doc_text(index)] * 4) for index in range(6)
        ]
        with ShardedClient(shard_paths) as ring:
            results = ring.check_corpus(batches)
            stats = ring.stats()
        assert len(results) == 6
        for index, (replies, trailer) in enumerate(results):
            assert trailer["items"] == 4
            assert all(r["potentially_valid"] for r in replies)
        total_misses = sum(
            shard["registry"]["misses"]
            for shard in stats["shards"].values()
            if shard is not None
        )
        assert total_misses == 6

    def test_classify_and_validate_route_too(self, shard_paths):
        with ShardedClient(shard_paths) as ring:
            classify = ring.classify(FIGURE1)
            assert classify["dtd_class"] == "non-recursive"
            validate = ring.validate(FIGURE1, DOC_OK)
            assert validate["valid"] is False
            # Three schema-touching calls, one owner, zero extra compiles.
            stats = ring.stats()
        total_misses = sum(
            shard["registry"]["misses"]
            for shard in stats["shards"].values()
            if shard is not None
        )
        assert total_misses == 1

    def test_needs_at_least_one_member(self):
        with pytest.raises(ValueError):
            ShardedClient([])


# -- replica sets ------------------------------------------------------------


class TestReplicaSets:
    def test_owners_are_a_prefix_of_preference(self):
        ring = ShardRing(
            ["a.sock", "b.sock", "c.sock", "d.sock"], replica_count=2
        )
        for key in (f"key-{i}" for i in range(50)):
            owners = ring.owners(key)
            assert len(owners) == 2
            assert owners == ring.preference(key)[:2]
            assert owners[0] == ring.owner(key)

    def test_replica_count_larger_than_ring_yields_every_member(self):
        members = ["a.sock", "b.sock", "c.sock"]
        ring = ShardRing(members, replica_count=5)
        assert sorted(ring.owners("anything")) == sorted(members)

    def test_replica_sets_are_stable_for_survivors(self):
        ring = ShardRing(
            ["a.sock", "b.sock", "c.sock", "d.sock"], replica_count=2
        )
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.owners(k) for k in keys}
        ring.remove("d.sock")
        for key in keys:
            survivors = [m for m in before[key] if m != "d.sock"]
            # Surviving replicas keep their relative order; a lost slot is
            # refilled by the next member down the old preference walk.
            assert ring.owners(key)[: len(survivors)] == survivors

    def test_replica_count_validation(self):
        with pytest.raises(ValueError):
            ShardRing(["a.sock"], replica_count=0)
        with pytest.raises(ValueError):
            ShardRing(["a.sock"], vnodes=0)


class TestReplicatedClient:
    def test_compile_fans_out_to_the_replica_set(self, shard_handles):
        paths = [handle.unix_path for handle in shard_handles]
        with ShardedClient(paths, replica_count=2) as ring:
            ring.check(FIGURE1, DOC_OK)
            fingerprint = ring.fingerprint(FIGURE1)
            owners = {member_label(m) for m in ring.ring.owners(fingerprint)}
            stats = ring.ring_stats
            # One compile, one fan-out hand-off to the second replica.
            assert stats["compiles_observed"] == 1
            assert stats["handoffs"] == 1
        # Both replicas answer warm; non-replicas never saw the schema.
        total_misses = 0
        for handle in shard_handles:
            misses = handle.server.registry.stats.misses
            total_misses += misses
            held = handle.server.registry.lookup(fingerprint) is not None
            assert held == (handle.unix_path in owners)
        assert total_misses == 1

    def test_killing_one_replica_loses_no_checks_and_no_compiles(
        self, shard_handles
    ):
        paths = [handle.unix_path for handle in shard_handles]
        with ShardedClient(paths, replica_count=2) as ring:
            ring.check(FIGURE1, DOC_OK)
            fingerprint = ring.fingerprint(FIGURE1)
            primary = ring.ring.owner(fingerprint)
            shard_handles[paths.index(primary)].stop()
            reply = ring.check(FIGURE1, DOC_OK)
            assert reply["potentially_valid"] is True
            # The surviving replica answered from its fanned-out artifact:
            # a registry hit, not a recompile.
            assert reply["schema"]["registry"] == "hit"
            assert ring.ring_stats["failovers"] == 1
            assert ring.ring_stats["compiles_observed"] == 1

    def test_all_replicas_down_is_a_clear_error_not_a_hang(self, tmp_path):
        # Every member of the (whole-ring) replica set is unreachable: the
        # call must fail fast with a structured, catchable error.
        paths = [str(tmp_path / f"nobody-{i}.sock") for i in range(2)]
        ring = ShardedClient(paths, replica_count=2, timeout=2.0)
        with pytest.raises(ShardUnavailableError) as excinfo:
            ring.check(FIGURE1, DOC_OK)
        assert excinfo.value.code == "unreachable"
        assert excinfo.value.fingerprint == ring.fingerprint(FIGURE1)
        # Both contracts hold: it is a ServerError and a ConnectionError.
        assert isinstance(excinfo.value, ServerError)
        assert isinstance(excinfo.value, ConnectionError)

    def test_replica_count_above_live_members_still_serves(self, shard_paths):
        with ShardedClient(shard_paths, replica_count=7) as ring:
            reply = ring.check(FIGURE1, DOC_OK)
            assert reply["potentially_valid"] is True
            fingerprint = ring.fingerprint(FIGURE1)
            assert len(ring.ring.owners(fingerprint)) == len(shard_paths)


# -- epochs on the client ----------------------------------------------------


class TestClientEpochs:
    def test_client_adopts_the_first_stamped_epoch(self, shard_handles):
        paths = [handle.unix_path for handle in shard_handles]
        for handle in shard_handles:
            handle.server.set_ring_view(3, paths, 1)
        with ShardedClient(paths) as ring:
            assert ring.epoch is None
            ring.check(FIGURE1, DOC_OK)
            assert ring.epoch == 3

    def test_wrong_epoch_refreshes_membership_without_restart(
        self, shard_handles, tmp_path
    ):
        paths = [handle.unix_path for handle in shard_handles]
        for handle in shard_handles:
            handle.server.set_ring_view(1, paths, 1)
        with ShardedClient(paths) as ring:
            ring.check(FIGURE1, DOC_OK)
            assert ring.epoch == 1
            # Membership changes behind the client's back: every shard
            # learns epoch 2 with one member gone.
            survivors = paths[:2]
            for handle in shard_handles[:2]:
                handle.server.set_ring_view(2, survivors, 1)
            shard_handles[2].stop()
            reply = ring.check(FIGURE1, DOC_OK)
            assert reply["potentially_valid"] is True
            assert ring.epoch == 2
            assert ring.ring_stats["members"] == sorted(survivors)

    def test_epoch_race_between_two_membership_changes(self, shard_handles):
        # The client sleeps through two changes; one wrong-epoch answer
        # must deliver the *newest* view, and a stale view pushed later
        # must not roll the client back.
        paths = [handle.unix_path for handle in shard_handles]
        for handle in shard_handles:
            handle.server.set_ring_view(1, paths, 1)
        with ShardedClient(paths) as ring:
            ring.check(FIGURE1, DOC_OK)
            assert ring.epoch == 1
            for handle in shard_handles:  # change 1 then change 2, racing
                handle.server.set_ring_view(2, paths[:2], 1)
                handle.server.set_ring_view(3, paths[:1], 1)
            assert ring.check(FIGURE1, DOC_OK)["potentially_valid"]
            assert ring.epoch == 3
            assert ring.ring_stats["members"] == [paths[0]]
            # A stale refresh arriving late is ignored.
            ring.refresh(paths[:2], epoch=2)
            assert ring.epoch == 3
            assert ring.ring_stats["members"] == [paths[0]]

    def test_success_reply_with_newer_epoch_triggers_health_refresh(
        self, shard_handles
    ):
        paths = [handle.unix_path for handle in shard_handles]
        for handle in shard_handles:
            handle.server.set_ring_view(1, paths, 1)
        with ShardedClient(paths) as ring:
            ring.check(FIGURE1, DOC_OK)
            assert ring.epoch == 1
            # The view advances but the client's next request carries the
            # old epoch — which is *older*, so the shard rejects it... to
            # exercise the stamp-chasing path instead, advance only the
            # reply stamp via a fresh fingerprint routed to a shard that
            # already adopted epoch 2.
            for handle in shard_handles:
                handle.server.set_ring_view(2, paths[:2], 1)
            assert ring.check(FIGURE1, DOC_OK)["potentially_valid"]
            assert ring.epoch == 2

    def test_health_chased_adoption_invalidates_the_owners_memo(
        self, shard_handles
    ):
        # The bugfix: the fingerprint→owners memo must be dropped on
        # *every* epoch adoption, not only on wrong-epoch replies.  Warm
        # the memo, bump the epoch behind the client's back with the
        # schema's owner removed from the view, let a success-reply stamp
        # chase the refresh — the next request must not route to the
        # removed member.
        paths = [handle.unix_path for handle in shard_handles]
        for handle in shard_handles:
            handle.server.set_ring_view(1, paths, 1)
        with ShardedClient(paths) as ring:
            ring.check(FIGURE1, DOC_OK)  # memo warm, epoch 1 adopted
            fingerprint = ring.fingerprint(FIGURE1)
            removed = member_label(ring.placement.owners(fingerprint)[0])
            survivors = [p for p in paths if p != removed]
            # Every shard (including the removed one, which stays up and
            # would happily serve a stale-routed request) learns epoch 2.
            for handle in shard_handles:
                handle.server.set_ring_view(2, survivors, 1)
            served_before = ring.ring_stats["requests_by_member"].get(
                removed, 0
            )
            # A schema owned by a survivor: its success reply is stamped
            # epoch 2 and the client chases the view via health.
            for index in range(8):
                ring.check(schema_text(index), doc_text(index))
                if ring.epoch == 2:
                    break
            assert ring.epoch == 2
            assert ring.ring_stats["members"] == sorted(survivors)
            # The memo entry for FIGURE1 died with the adoption: the
            # request re-resolves under the new view, away from the
            # removed member.
            reply = ring.check(FIGURE1, DOC_OK)
            assert reply["potentially_valid"] is True
            assert member_label(
                ring.placement.owners(fingerprint)[0]
            ) != removed
            assert (
                ring.ring_stats["requests_by_member"].get(removed, 0)
                == served_before
            )

    def test_client_adopts_the_advertised_read_policy(self, shard_handles):
        paths = [handle.unix_path for handle in shard_handles]
        for handle in shard_handles:
            handle.server.set_ring_view(
                1, paths, 2, read_policy="round-robin"
            )
        with ShardedClient(paths, replica_count=2) as ring:
            assert ring.read_policy == "primary-first"  # nothing learned yet
            ring.check(FIGURE1, DOC_OK)
            # The first stamped reply triggered a health fetch of the
            # full view, advertised policy included.
            assert ring.read_policy == "round-robin"
            assert ring.placement.read_policy == "round-robin"


class TestReadPolicies:
    def test_round_robin_reads_alternate_across_the_replica_set(
        self, shard_handles
    ):
        paths = [handle.unix_path for handle in shard_handles]
        with ShardedClient(
            paths, replica_count=2, read_policy="round-robin"
        ) as ring:
            for _ in range(6):
                assert ring.check(FIGURE1, DOC_OK)["ok"]
            fingerprint = ring.fingerprint(FIGURE1)
            owners = {member_label(m) for m in ring.ring.owners(fingerprint)}
            served = ring.ring_stats["requests_by_member"]
        # Both replicas took reads; each at least 2 of the 6.
        assert set(served) == owners
        assert all(count >= 2 for count in served.values())
        # The spread cost nothing: one compile, artifacts fanned out.
        assert sum(
            handle.server.registry.stats.misses for handle in shard_handles
        ) == 1

    def test_least_inflight_serves_from_an_idle_replica(self, shard_paths):
        with ShardedClient(
            shard_paths, replica_count=2, read_policy="least-inflight"
        ) as ring:
            fingerprint = ring.fingerprint(FIGURE1)
            primary, replica = ring.ring.owners(fingerprint)
            ring.check(FIGURE1, DOC_OK)  # compiles on the primary, fans out
            # Simulate a straggling primary: a request pinned in flight.
            ring.router.begin(primary)
            try:
                reply = ring.check(FIGURE1, DOC_OK)
                assert reply["potentially_valid"] is True
                served = ring.ring_stats["requests_by_member"]
                assert served.get(member_label(replica), 0) >= 1
            finally:
                ring.router.finish(primary)

    def test_invalid_read_policy_is_rejected(self, shard_paths):
        with pytest.raises(ValueError):
            ShardedClient(shard_paths, read_policy="sticky")


# -- corpus-level failure surfacing ------------------------------------------


class TestCheckCorpusFailures:
    def test_dead_shard_mid_corpus_fails_over_losing_nothing(self, tmp_path):
        # One live shard, one address nobody serves: batches owned by the
        # dead member fail over to the live one — the corpus completes
        # with zero lost checks and no exception.
        live = ServerThread(unix_path=str(tmp_path / "live.sock"), port=0).start()
        dead_path = str(tmp_path / "dead.sock")
        try:
            with ShardedClient(
                [live.unix_path, dead_path], timeout=2.0
            ) as ring:
                batches = [
                    (schema_text(index), [doc_text(index)] * 2)
                    for index in range(8)
                ]
                dead_owned = [
                    index
                    for index, (dtd, _docs) in enumerate(batches)
                    if member_label(ring.ring.owner(ring.fingerprint(dtd)))
                    == dead_path
                ]
                assert dead_owned, "salt the schema family: no batch mapped"
                results = ring.check_corpus(batches)
                stats = ring.ring_stats
        finally:
            live.stop()
        assert len(results) == len(batches)
        for replies, trailer in results:
            assert trailer["ok"] is True
            assert all(r["potentially_valid"] for r in replies)
        # Only the first routed call pays the failover (the dead member is
        # then marked down and later batches route straight to the live one).
        assert stats["failovers"] >= 1
        assert dead_path in stats["down"]

    def test_failed_batch_does_not_abort_the_shards_remaining_work(
        self, tmp_path
    ):
        # Both batches route to the same dead member: each gets its own
        # failure entry (the old behavior abandoned the second).
        dead_path = str(tmp_path / "dead.sock")
        ring = ShardedClient([dead_path], timeout=2.0)
        results = ring.check_corpus(
            [(schema_text(0), [doc_text(0)]), (schema_text(1), [doc_text(1)])]
        )
        assert len(results) == 2
        for replies, trailer in results:
            assert replies is None
            assert trailer["error"]["code"] == "unreachable"


# -- one lease per shard round trip ------------------------------------------


class TestRoundTripLease:
    """Every shard round trip goes through ``ConnectionPool.request``: a
    pooled connection is reused only after a clean round trip."""

    def test_a_rejected_batch_header_does_not_desync_later_checks(
        self, tmp_path
    ):
        # The bad header is answered, and the item lines already sent
        # behind it must never be answered on a connection the client
        # reuses: each later check reads its own reply.
        shard = ServerThread(
            unix_path=str(tmp_path / "shard.sock"), port=0
        ).start()
        try:
            with ShardedClient([shard.unix_path]) as ring:
                with pytest.raises(ServerError) as excinfo:
                    ring.check_batch(FIGURE1, [DOC_OK] * 3, algorithm="bogus")
                assert excinfo.value.code == "bad-request"
                for _ in range(3):
                    reply = ring.check(FIGURE1, DOC_OK)
                    assert reply["op"] == "check"
                    assert reply["potentially_valid"] is True
                stats = ring.ring_stats
        finally:
            shard.stop()
        assert stats["down"] == []  # the shard answered: it is not down
        assert stats["failovers"] == 0

    def test_a_pinned_batch_to_a_stopped_shard_does_not_fail_over(
        self, tmp_path
    ):
        stopped, live = (
            ServerThread(
                unix_path=str(tmp_path / f"shard-{i}.sock"), port=0
            ).start()
            for i in range(2)
        )
        dead_path = stopped.unix_path
        stopped.stop()
        try:
            with ShardedClient(
                [dead_path, live.unix_path], replica_count=2, timeout=2.0
            ) as ring:
                with pytest.raises(ShardUnavailableError):
                    ring.routed_batch(FIGURE1, [DOC_OK], member=dead_path)
                stats = ring.ring_stats
        finally:
            live.stop()
        assert stats["down"] == [dead_path]
        assert stats["requests_by_member"] == {}
        assert stats["failovers"] == 0
        assert live.server._requests == 0  # the other member never heard


# -- the client-side coarse pre-filter ---------------------------------------


class TestCoarseFilter:
    """``coarse_filter=True``: definite documents never cross the wire."""

    #: <zz> is undeclared in FIGURE1 — a definite coarse reject.
    REJECT = "<r><zz></zz></r>"

    def test_first_batch_adopts_the_reply_stamp(self, shard_paths):
        with ShardedClient(shard_paths, coarse_filter=True) as ring:
            replies, trailer = ring.check_batch(FIGURE1, [DOC_OK, self.REJECT])
            # Nothing cached yet: the batch runs unfiltered on the shard,
            # which stamps the summary into the trailer for adoption.
            assert "filtered" not in trailer
            assert replies[0]["potentially_valid"] is True
            assert replies[1]["potentially_valid"] is False
            stats = ring.ring_stats
            assert stats["coarse_cached"] == 1
            assert stats["coarse_filtered"] == 0

    def test_second_batch_is_pre_filtered_locally(self, shard_paths):
        with ShardedClient(shard_paths, coarse_filter=True) as ring:
            ring.check_batch(FIGURE1, [DOC_OK])  # prime the summary cache
            replies, trailer = ring.check_batch(
                FIGURE1, [self.REJECT, DOC_OK, self.REJECT]
            )
            assert trailer["items"] == 3
            assert trailer["filtered"] == 2
            for index in (0, 2):
                assert replies[index]["id"] == index
                assert replies[index]["algorithm"] == "coarse"
                assert replies[index]["admission"] == "reject"
                assert replies[index]["filtered"] is True
                assert replies[index]["potentially_valid"] is False
                failure = replies[index]["failures"][0]
                assert (failure["path"], failure["element"]) == ("/r", "r")
            # The uncertain document escalated to the owning shard.
            assert replies[1]["id"] == 1
            assert replies[1]["algorithm"] != "coarse"
            assert replies[1]["potentially_valid"] is True
            assert ring.ring_stats["coarse_filtered"] == 2

    def test_all_definite_batch_never_touches_a_shard(self, shard_paths):
        with ShardedClient(shard_paths, coarse_filter=True) as ring:
            ring.check_batch(FIGURE1, [DOC_OK])  # prime the summary cache
            requests_before = dict(ring.ring_stats["requests_by_member"])
            replies, trailer = ring.check_batch(FIGURE1, [self.REJECT] * 4)
            assert trailer["filtered"] == 4
            assert trailer["errors"] == 0
            assert all(r["algorithm"] == "coarse" for r in replies)
            assert ring.ring_stats["requests_by_member"] == requests_before

    def test_an_invalid_character_reference_escalates_to_bad_document(
        self, shard_paths
    ):
        # The filter's scan raises the document's syntax error, and the
        # shard owns bad-document: the item escalates, the client goes on.
        with ShardedClient(shard_paths, coarse_filter=True) as ring:
            ring.check_batch(FIGURE1, [DOC_OK])  # prime the summary cache
            replies, trailer = ring.check_batch(
                FIGURE1, ["<r>&#xZZ;</r>", self.REJECT]
            )
        assert replies[0]["error"]["code"] == "bad-document"
        assert replies[1]["filtered"] is True
        assert trailer["errors"] == 1

    def test_cache_miss_falls_back_to_get_coarse(self, shard_paths):
        # Prime the *shard* with the artifact through one client, then a
        # fresh client (empty stamp cache) must fetch the summary via the
        # get-coarse op instead of an unfiltered stamped batch.
        with ShardedClient(shard_paths) as primer:
            primer.check(FIGURE1, DOC_OK)
        with ShardedClient(shard_paths, coarse_filter=True) as ring:
            replies, trailer = ring.check_batch(FIGURE1, [self.REJECT, DOC_OK])
            assert trailer["filtered"] == 1
            assert replies[0]["algorithm"] == "coarse"
            assert replies[1]["potentially_valid"] is True
            assert ring.ring_stats["coarse_cached"] == 1

    def test_a_cold_probe_keeps_the_pooled_connection(self, tmp_path):
        # Before any shard holds a schema's artifact, both owners answer
        # the get-coarse probe with artifact-miss.  That reply is one
        # whole line, so each pooled connection stays in use: one connect
        # per shard for five cold schemas.
        handles = [
            ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"), port=0).start()
            for i in range(2)
        ]
        connects = Counter()

        def connect(member, timeout):
            connects[member_label(member)] += 1
            return ValidationClient.connect(member, timeout=timeout)

        try:
            with ShardedClient(
                [handle.unix_path for handle in handles],
                replica_count=2,
                read_policy="round-robin",
                connect=connect,
                coarse_filter=True,
            ) as ring:
                for index in range(5):
                    reject = f"<r{index}><zz></zz></r{index}>"
                    for _ in range(2):
                        replies, _trailer = ring.check_batch(
                            schema_text(index), [doc_text(index), reject]
                        )
                        assert [r["potentially_valid"] for r in replies] == [
                            True,
                            False,
                        ]
                stats = ring.ring_stats
        finally:
            for handle in handles:
                handle.stop()
        assert sum(connects.values()) == 2, connects
        assert stats["down"] == []
        assert stats["coarse_cached"] == 5
        assert stats["coarse_filtered"] == 5  # each second batch's reject

    def test_filter_is_bypassed_for_explicit_algorithms(self, shard_paths):
        with ShardedClient(shard_paths, coarse_filter=True) as ring:
            ring.check_batch(FIGURE1, [DOC_OK])  # prime the summary cache
            replies, trailer = ring.check_batch(
                FIGURE1, [self.REJECT], algorithm="kernel"
            )
            assert "filtered" not in trailer
            assert replies[0]["algorithm"] == "kernel"
            assert replies[0]["potentially_valid"] is False
