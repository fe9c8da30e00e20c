"""Tests for the persistent on-disk artifact store and its registry hookup."""

from __future__ import annotations

import copyreg
import io
import os
import pickle
from dataclasses import fields

import pytest

from repro.dtd.ast import Choice, Name, Opt, PCData, Plus, Seq, Star
from repro.dtd.parser import parse_dtd
from repro.service.compiled import CompiledSchema, compile_schema
from repro.service.registry import SchemaRegistry
from repro.service.store import (
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    SUPPORTED_FORMAT_VERSIONS,
    ArtifactStore,
    artifact_format_version,
    decode_artifact,
    default_store_dir,
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

PLAY = "<!ELEMENT play (act+)><!ELEMENT act (#PCDATA)>"


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


@pytest.fixture
def schema():
    return compile_schema(parse_dtd(FIGURE1))


class TestSaveLoad:
    def test_roundtrip(self, store, schema):
        path = store.save(schema)
        assert path.exists()
        loaded = store.load(schema.fingerprint)
        assert loaded is not None
        assert loaded.fingerprint == schema.fingerprint
        assert loaded.dtd == schema.dtd
        # The loaded artifact answers verdicts like the original.
        assert loaded.checker().check_content("r", ["a"])

    def test_header_is_versioned(self, store, schema):
        path = store.save(schema)
        first_line = path.read_bytes().split(b"\n", 1)[0]
        assert first_line == f"{STORE_MAGIC} {STORE_FORMAT_VERSION}".encode()

    def test_missing_is_a_miss(self, store):
        assert store.load("0" * 64) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_contains_and_fingerprints(self, store, schema):
        assert schema.fingerprint not in store
        store.save(schema)
        assert schema.fingerprint in store
        assert store.fingerprints() == [schema.fingerprint]
        assert len(store) == 1

    def test_save_is_atomic_no_temp_left_behind(self, store, schema):
        store.save(schema)
        leftovers = [
            name
            for name in os.listdir(store.directory)
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_clear(self, store, schema):
        store.save(schema)
        store.save(compile_schema(parse_dtd(PLAY)))
        assert store.clear() == 2
        assert len(store) == 0

    def test_orphaned_temp_files_are_not_artifacts(self, store, schema):
        store.save(schema)
        orphan = store.directory / ".tmp-orphan.pkl"
        orphan.write_bytes(b"a saver died mid-write")
        assert len(store) == 1
        assert store.stats.artifacts == 1
        assert store.fingerprints() == [schema.fingerprint]
        assert store.clear() == 1  # the orphan is swept but not counted
        assert list(store.directory.iterdir()) == []

    def test_stats_counts_bytes(self, store, schema):
        store.save(schema)
        stats = store.stats
        assert stats.artifacts == 1
        assert stats.total_bytes > 0
        assert stats.saves == 1


class TestCorruptionTolerance:
    """Every defect is a miss that falls back to recompilation, never an error."""

    def test_truncated_payload(self, store, schema):
        path = store.save(schema)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.load(schema.fingerprint) is None
        assert store.stats.corrupt == 1
        assert not path.exists()  # unlinked so the next save replaces it

    def test_garbage_bytes(self, store, schema):
        path = store.save(schema)
        path.write_bytes(b"\x00\xff garbage, definitely not a pickle \x00")
        assert store.load(schema.fingerprint) is None
        assert store.stats.corrupt == 1

    def test_wrong_magic(self, store, schema):
        path = store.save(schema)
        blob = path.read_bytes()
        path.write_bytes(b"some-other-tool 1\n" + blob.split(b"\n", 1)[1])
        assert store.load(schema.fingerprint) is None

    def test_future_format_version(self, store, schema):
        path = store.save(schema)
        blob = path.read_bytes()
        header = f"{STORE_MAGIC} {STORE_FORMAT_VERSION + 1}\n".encode()
        path.write_bytes(header + blob.split(b"\n", 1)[1])
        assert store.load(schema.fingerprint) is None

    def test_renamed_file_fingerprint_mismatch(self, store, schema):
        """A file whose payload is a different schema does not satisfy a load."""
        store.save(schema)
        other = compile_schema(parse_dtd(PLAY))
        os.replace(
            store.path_for(schema.fingerprint), store.path_for(other.fingerprint)
        )
        assert store.load(other.fingerprint) is None
        assert store.stats.corrupt == 1

    def test_empty_file(self, store, schema):
        path = store.path_for(schema.fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        assert store.load(schema.fingerprint) is None


class _FieldLayoutPickler(pickle.Pickler):
    """Pickles content-model nodes the way code before their flat form did.

    Each node was a class reference plus a dict of its fields (``#PCDATA``,
    which has none, had no state at all), and unpickling restored the
    fields without running any constructor.
    """

    def reducer_override(self, obj):
        if isinstance(obj, (Name, PCData, Seq, Choice, Star, Plus, Opt)):
            state = {field.name: getattr(obj, field.name) for field in fields(obj)}
            return copyreg.__newobj__, (type(obj),), state or None
        return NotImplemented


def _write_old_artifact(
    store: ArtifactStore, schema: CompiledSchema, version: int
) -> None:
    """An authentic older-format file: versioned header, slimmer pickle.

    v1 carried neither the kernel tables nor the coarse summary; v2 added
    the tables but predates the summary.  Files of every version were
    written before content nodes had a flat pickled form.
    """
    old_layout = CompiledSchema(
        dtd=schema.dtd,
        fingerprint=schema.fingerprint,
        analysis=schema.analysis,
        dag=schema.dag,
        compile_seconds=schema.compile_seconds,
        tables=schema.tables if version >= 2 else None,
        coarse=schema.coarse if version >= 3 else None,
    )
    payload = io.BytesIO()
    _FieldLayoutPickler(payload, protocol=pickle.HIGHEST_PROTOCOL).dump(old_layout)
    blob = f"{STORE_MAGIC} {version}\n".encode() + payload.getvalue()
    store.directory.mkdir(parents=True, exist_ok=True)
    store.path_for(schema.fingerprint).write_bytes(blob)


def _write_v1_artifact(store: ArtifactStore, schema: CompiledSchema) -> None:
    _write_old_artifact(store, schema, 1)


def _write_v2_artifact(store: ArtifactStore, schema: CompiledSchema) -> None:
    _write_old_artifact(store, schema, 2)


class TestFormatUpgrade:
    """Supported older versions are hits that upgrade in place, not corruption."""

    def test_version_constants_are_coherent(self):
        assert STORE_FORMAT_VERSION in SUPPORTED_FORMAT_VERSIONS
        assert 1 in SUPPORTED_FORMAT_VERSIONS  # v1 artifacts keep loading

    def test_v1_load_is_a_hit_that_upgrades_in_place(self, store, schema):
        _write_v1_artifact(store, schema)
        loaded = store.load(schema.fingerprint)
        assert loaded is not None
        stats = store.stats
        assert stats.hits == 1
        assert stats.corrupt == 0
        assert stats.upgrades == 1
        # The file on disk was rewritten as a full current-version artifact.
        blob = store.path_for(schema.fingerprint).read_bytes()
        assert artifact_format_version(blob) == STORE_FORMAT_VERSION
        revived = decode_artifact(blob, schema.fingerprint)
        assert revived is not None and revived.has_tables

    @pytest.mark.parametrize("version", SUPPORTED_FORMAT_VERSIONS)
    def test_field_layout_nodes_load_compare_and_hash(self, store, schema, version):
        """Content nodes pickled as field dicts load, compare equal and
        hash like freshly parsed ones, at every supported version."""
        _write_old_artifact(store, schema, version)
        blob = store.path_for(schema.fingerprint).read_bytes()
        assert b"repro.dtd.ast" in blob and b"_rebuild" not in blob
        loaded = store.load(schema.fingerprint)
        assert loaded is not None and store.stats.hits == 1
        fresh = parse_dtd(FIGURE1)
        assert loaded.dtd == fresh and hash(loaded.dtd) == hash(fresh)
        assert {loaded.dtd: "cached"}[fresh] == "cached"
        assert loaded.checker("kernel").check_content("r", ["a"])

    def test_upgraded_artifact_serves_the_kernel_backend(self, store, schema):
        _write_v1_artifact(store, schema)
        loaded = store.load(schema.fingerprint)
        assert loaded.checker("kernel").check_content("r", ["a"])

    def test_second_v1_load_after_upgrade_is_a_plain_hit(self, store, schema):
        _write_v1_artifact(store, schema)
        store.load(schema.fingerprint)
        store.load(schema.fingerprint)
        stats = store.stats
        assert stats.hits == 2
        assert stats.upgrades == 1  # the rewrite stuck; no second upgrade

    def test_upgrades_are_logged_once_per_store(self, store, schema, caplog):
        _write_v1_artifact(store, schema)
        other = compile_schema(parse_dtd(PLAY))
        _write_v1_artifact(store, other)
        with caplog.at_level("INFO", logger="repro.service.store"):
            assert store.load(schema.fingerprint) is not None
            assert store.load(other.fingerprint) is not None
        upgrade_logs = [
            record for record in caplog.records if "upgraded artifact" in record.message
        ]
        assert len(upgrade_logs) == 1
        assert store.stats.upgrades == 2  # both counted, one logged

    def test_artifact_format_version_is_purely_syntactic(self, schema):
        from repro.service.store import encode_artifact

        assert artifact_format_version(encode_artifact(schema)) == (
            STORE_FORMAT_VERSION
        )
        # A future version still reports its number (distinguishable from
        # garbage), it just is not loadable.
        future = f"{STORE_MAGIC} {STORE_FORMAT_VERSION + 7}\npayload".encode()
        assert artifact_format_version(future) == STORE_FORMAT_VERSION + 7
        assert artifact_format_version(b"not a header") is None
        assert artifact_format_version(b"") is None

    def test_registry_snapshot_counts_store_upgrades(self, tmp_path, schema):
        store = ArtifactStore(tmp_path / "artifacts")
        _write_v1_artifact(store, schema)
        registry = SchemaRegistry(store=store)
        registry.get(schema.dtd)
        assert registry.stats.store_upgrades == 1
        assert registry.stats.misses == 0  # the v1 file prevented a compile

    def test_v1_upgrade_builds_tables_and_coarse(self, store, schema):
        """A v1 file upgrades straight to v3: both derived payloads built."""
        _write_v1_artifact(store, schema)
        assert store.load(schema.fingerprint) is not None
        blob = store.path_for(schema.fingerprint).read_bytes()
        assert artifact_format_version(blob) == STORE_FORMAT_VERSION
        revived = decode_artifact(blob, schema.fingerprint)
        assert revived is not None
        assert revived.has_tables and revived.has_coarse

    def test_v2_load_is_a_hit_that_upgrades_in_place(self, store, schema):
        _write_v2_artifact(store, schema)
        loaded = store.load(schema.fingerprint)
        assert loaded is not None
        stats = store.stats
        assert stats.hits == 1
        assert stats.corrupt == 0
        assert stats.upgrades == 1
        # The rewritten file is a full v3 artifact: the tables the v2
        # layout already had, plus the coarse summary it lacked.
        blob = store.path_for(schema.fingerprint).read_bytes()
        assert artifact_format_version(blob) == STORE_FORMAT_VERSION
        revived = decode_artifact(blob, schema.fingerprint)
        assert revived is not None
        assert revived.has_tables and revived.has_coarse

    def test_v2_upgrade_serves_admission_without_recompiling(self, store, schema):
        from repro.core.coarse import CoarseChecker
        from repro.xmlmodel.parser import parse_xml

        _write_v2_artifact(store, schema)
        loaded = store.load(schema.fingerprint)
        verdict = CoarseChecker(loaded.coarse).check_document(parse_xml("<x/>"))
        assert verdict.outcome == "reject"

    def test_second_v2_load_after_upgrade_is_a_plain_hit(self, store, schema):
        _write_v2_artifact(store, schema)
        store.load(schema.fingerprint)
        store.load(schema.fingerprint)
        stats = store.stats
        assert stats.hits == 2
        assert stats.upgrades == 1  # the rewrite stuck; no second upgrade


class TestRingHandoff:
    """A v3 artifact handed to a shard that has only v2 on disk."""

    def test_v3_handoff_replaces_a_v2_only_store(self, tmp_path, schema):
        from repro.core.coarse import decode_coarse
        from repro.server.client import ValidationClient
        from repro.server.server import ServerThread
        from repro.service.store import encode_artifact

        recipient_store = ArtifactStore(tmp_path / "recipient")
        _write_v2_artifact(recipient_store, schema)
        # The donor's wire blob is the current v3 format (one encoding for
        # disk and wire); hand it to a shard whose disk still says v2.
        blob = encode_artifact(schema)
        with ServerThread(
            unix_path=str(tmp_path / "recipient.sock"),
            port=0,
            store=recipient_store,
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                put = client.put_artifact(schema.fingerprint, blob)
                assert put["stored"] == "registry+store"
                # The seeded shard serves the coarse summary immediately —
                # no recompile, no reliance on the stale v2 file.
                summary = decode_coarse(client.get_coarse(schema.fingerprint))
        assert summary is not None
        assert summary.root == schema.dtd.root
        disk = recipient_store.path_for(schema.fingerprint).read_bytes()
        assert artifact_format_version(disk) == STORE_FORMAT_VERSION
        revived = decode_artifact(disk, schema.fingerprint)
        # The donor never read its coarse summary, so the file it handed
        # over need not carry one.
        assert revived is not None and revived.has_tables

    def test_v2_only_shard_upgrades_on_first_coarse_request(self, tmp_path, schema):
        """Without a hand-off, get-coarse off a v2 file upgrades in place."""
        from repro.core.coarse import decode_coarse
        from repro.server.client import ValidationClient
        from repro.server.server import ServerThread

        shard_store = ArtifactStore(tmp_path / "v2-only")
        _write_v2_artifact(shard_store, schema)
        with ServerThread(
            unix_path=str(tmp_path / "v2.sock"), port=0, store=shard_store
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                summary = decode_coarse(client.get_coarse(schema.fingerprint))
        assert summary is not None and summary.root == schema.dtd.root
        assert shard_store.stats.upgrades == 1
        disk = shard_store.path_for(schema.fingerprint).read_bytes()
        assert artifact_format_version(disk) == STORE_FORMAT_VERSION


class TestRegistryIntegration:
    def test_compile_writes_through(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        registry = SchemaRegistry(store=store)
        schema = registry.get(parse_dtd(FIGURE1))
        assert schema.fingerprint in store
        assert registry.stats.misses == 1
        assert store.stats.saves == 1

    def test_restart_loads_without_compiling(self, tmp_path):
        store_dir = tmp_path / "artifacts"
        first = SchemaRegistry(store=ArtifactStore(store_dir))
        compiled = first.get(parse_dtd(FIGURE1))
        # A "restarted process": fresh registry, fresh store handle.
        second = SchemaRegistry(store=ArtifactStore(store_dir))
        loaded = second.get(parse_dtd(FIGURE1))
        stats = second.stats
        assert loaded.fingerprint == compiled.fingerprint
        assert stats.misses == 0  # no compile happened
        assert stats.store_hits == 1
        assert stats.compile_seconds == 0.0
        assert stats.hit_rate == 1.0

    def test_corrupt_store_falls_back_to_recompile(self, tmp_path):
        store_dir = tmp_path / "artifacts"
        first = SchemaRegistry(store=ArtifactStore(store_dir))
        compiled = first.get(parse_dtd(FIGURE1))
        path = ArtifactStore(store_dir).path_for(compiled.fingerprint)
        path.write_bytes(b"truncated" * 3)
        store = ArtifactStore(store_dir)
        registry = SchemaRegistry(store=store)
        recompiled = registry.get(parse_dtd(FIGURE1))
        assert recompiled.fingerprint == compiled.fingerprint
        assert registry.stats.misses == 1  # honest recompile
        assert store.stats.corrupt == 1
        # ... and the recompile was written back, healing the store.
        assert store.load(compiled.fingerprint) is not None

    def test_unwritable_store_degrades_to_memory(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the store directory should be")
        registry = SchemaRegistry(store=ArtifactStore(target))
        schema = registry.get(parse_dtd(FIGURE1))  # save fails silently
        assert registry.stats.misses == 1
        assert registry.lookup(schema.fingerprint) is schema

    def test_resolve_reports_each_disposition(self, tmp_path):
        registry = SchemaRegistry(store=ArtifactStore(tmp_path / "artifacts"))
        dtd = parse_dtd(FIGURE1)
        compiled, disposition = registry.resolve(dtd)
        assert disposition == "miss" and registry.stats.misses == 1
        assert registry.resolve(dtd) == (compiled, "hit")
        assert registry.stats.hits == 1
        registry.clear()
        loaded, disposition = registry.resolve(dtd)
        assert disposition == "store" and registry.stats.store_hits == 1
        assert loaded.fingerprint == compiled.fingerprint
        stats = registry.stats
        assert (stats.misses, stats.hits, stats.store_hits) == (1, 1, 1)

    def test_attach_store_later(self, tmp_path):
        registry = SchemaRegistry()
        registry.get(parse_dtd(FIGURE1))
        store = ArtifactStore(tmp_path / "artifacts")
        registry.attach_store(store)
        registry.get(parse_dtd(PLAY))
        assert len(store) == 1  # only the post-attach compile is persisted


class TestRegistrySeeding:
    def test_put_counts_neither_hit_nor_miss(self):
        registry = SchemaRegistry()
        schema = compile_schema(parse_dtd(FIGURE1))
        assert registry.put(schema) is schema
        stats = registry.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 1)

    def test_put_keeps_existing_artifact(self):
        registry = SchemaRegistry()
        original = registry.get(parse_dtd(FIGURE1))
        clone = compile_schema(parse_dtd(FIGURE1))
        assert registry.put(clone) is original

    def test_counted_lookup(self):
        registry = SchemaRegistry()
        schema = registry.get(parse_dtd(FIGURE1))
        registry.lookup(schema.fingerprint, count=True)
        registry.lookup("f" * 64, count=True)  # miss: left for get() to count
        registry.lookup(schema.fingerprint)  # peek: not counted
        stats = registry.stats
        assert stats.hits == 1
        assert stats.misses == 1  # only the compile; no double counting


class TestDefaultStoreDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert default_store_dir() == tmp_path / "cache"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_store_dir() == tmp_path / "xdg" / "repro-pv" / "artifacts"
