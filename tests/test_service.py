"""Tests for the service layer: registry, compiled artifacts, batch checking."""

from __future__ import annotations

import copyreg
import io
import pickle
import random
from dataclasses import fields

import pytest

from repro.bench.harness import checker_for
from repro.cli import main
from repro.core.pv import PVChecker
from repro.dtd import catalog
from repro.dtd.ast import Choice, Name, Opt, PCData, Plus, Seq, Star
from repro.dtd.parser import parse_dtd
from repro.service.batch import BatchChecker, check_batch
from repro.service.compiled import (
    ARTIFACT_FORMAT_VERSION,
    ARTIFACT_MAGIC,
    CompiledSchema,
    compile_schema,
    decode_artifact,
    encode_artifact,
    schema_fingerprint,
)
from repro.service.registry import DEFAULT_REGISTRY, SchemaRegistry
from repro.workloads.corrupt import corrupt_rename, corrupt_swap
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml

FIGURE1 = """
<!ELEMENT r (a+)>
<!ELEMENT a (b?, (c | f), d)>
<!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA | e)*>
<!ELEMENT e EMPTY>
<!ELEMENT f (c, e)>
"""

#: The same DTD with scrambled whitespace and per-line layout — equivalent
#: serialization, so it must land on the same compiled artifact.
FIGURE1_REFORMATTED = (
    "<!ELEMENT   r   (a+)  ><!ELEMENT a (b?,(c|f),d)>\n\n"
    "<!ELEMENT b (d|f)><!ELEMENT c (#PCDATA)>"
    "<!ELEMENT d (#PCDATA|e)*><!ELEMENT e EMPTY><!ELEMENT f (c,e)>"
)

PLAY = "<!ELEMENT play (act+)><!ELEMENT act (#PCDATA)>"


def _differential_corpus(dtd, seed: int = 3, count: int = 4):
    """Valid, degraded, and corrupted documents (the differential mix)."""
    rng = random.Random(seed)
    generator = DocumentGenerator(dtd, seed=seed)
    documents = []
    for document in generator.documents(count, target_nodes=16, max_depth=8):
        documents.append(document)
        degraded, _ = degrade(document, rng, fraction=0.6)
        documents.append(degraded)
        swapped = corrupt_swap(document, rng)
        if swapped is not None:
            documents.append(swapped)
        renamed = corrupt_rename(document, rng, dtd.element_names())
        if renamed is not None:
            documents.append(renamed)
    return documents


class TestFingerprint:
    def test_stable_across_equivalent_serializations(self):
        first = parse_dtd(FIGURE1)
        second = parse_dtd(FIGURE1_REFORMATTED)
        assert schema_fingerprint(first) == schema_fingerprint(second)

    def test_name_is_cosmetic(self):
        first = parse_dtd(FIGURE1, name="alpha")
        second = parse_dtd(FIGURE1, name="beta")
        assert schema_fingerprint(first) == schema_fingerprint(second)

    def test_root_is_semantic(self):
        first = parse_dtd(FIGURE1)
        second = parse_dtd(FIGURE1, root="a")
        assert schema_fingerprint(first) != schema_fingerprint(second)

    def test_content_change_changes_hash(self):
        changed = FIGURE1.replace("(b?, (c | f), d)", "(b?, (c | f), d?)")
        assert schema_fingerprint(parse_dtd(FIGURE1)) != schema_fingerprint(
            parse_dtd(changed)
        )


class TestSchemaRegistry:
    def test_hit_miss_accounting(self):
        registry = SchemaRegistry(maxsize=4)
        dtd = parse_dtd(FIGURE1)
        first = registry.get(dtd)
        second = registry.get(dtd)
        assert first is second
        stats = registry.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert stats.hit_rate == 0.5
        assert stats.compile_seconds > 0

    def test_equivalent_serializations_share_artifact(self):
        registry = SchemaRegistry()
        first = registry.get(parse_dtd(FIGURE1))
        second = registry.get(parse_dtd(FIGURE1_REFORMATTED))
        assert first is second
        assert registry.stats.hits == 1

    def test_get_text_parses_and_caches(self):
        registry = SchemaRegistry()
        first = registry.get_text(FIGURE1)
        second = registry.get_text(FIGURE1_REFORMATTED)
        assert first is second

    def test_lru_eviction(self):
        registry = SchemaRegistry(maxsize=2)
        figure1 = parse_dtd(FIGURE1)
        play = catalog.play()
        tei = catalog.tei_lite()
        registry.get(figure1)
        registry.get(play)
        registry.get(tei)  # evicts figure1 (least recently used)
        assert registry.stats.evictions == 1
        assert len(registry) == 2
        assert figure1 not in registry
        assert play in registry
        registry.get(figure1)  # recompiles: a miss, evicting play
        stats = registry.stats
        assert stats.misses == 4
        assert stats.evictions == 2

    def test_hit_refreshes_lru_order(self):
        registry = SchemaRegistry(maxsize=2)
        figure1 = parse_dtd(FIGURE1)
        play = catalog.play()
        registry.get(figure1)
        registry.get(play)
        registry.get(figure1)  # refresh: play is now least recently used
        registry.get(catalog.tei_lite())
        assert figure1 in registry
        assert play not in registry

    def test_resolve_reports_each_disposition(self):
        registry = SchemaRegistry()
        dtd = parse_dtd(FIGURE1)
        compiled, disposition = registry.resolve(dtd)
        assert disposition == "miss" and registry.stats.misses == 1
        assert registry.resolve(dtd) == (compiled, "hit")
        assert registry.stats.hits == 1
        # Nothing outlives the registry: a dropped artifact compiles again.
        registry.clear()
        recompiled, disposition = registry.resolve(dtd)
        assert disposition == "miss" and recompiled is not compiled
        stats = registry.stats
        assert (stats.misses, stats.hits) == (2, 1)

    def test_lookup_by_fingerprint(self):
        registry = SchemaRegistry()
        dtd = parse_dtd(FIGURE1)
        assert registry.lookup(schema_fingerprint(dtd)) is None
        schema = registry.get(dtd)
        assert registry.lookup(schema.fingerprint) is schema

    def test_clear_keeps_stats(self):
        registry = SchemaRegistry()
        registry.get(parse_dtd(FIGURE1))
        registry.clear()
        assert len(registry) == 0
        assert registry.stats.misses == 1

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            SchemaRegistry(maxsize=0)

    def test_default_registry_backs_pv_checker(self):
        dtd = parse_dtd(FIGURE1)
        before = DEFAULT_REGISTRY.stats.lookups
        first = PVChecker(dtd)
        second = PVChecker(dtd)
        assert first.dag is second.dag
        assert first.compiled is second.compiled
        assert DEFAULT_REGISTRY.stats.lookups >= before + 2

    def test_checker_for_helper(self):
        dtd = parse_dtd(FIGURE1)
        checker = checker_for(dtd, algorithm="figure5")
        assert checker.algorithm == "figure5"
        assert checker.is_potentially_valid(parse_xml("<r></r>"))


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


class TestArtifactCodec:
    """``decode_artifact`` answers every defect with ``None``, never an
    error, and accepts only the current format version."""

    @pytest.fixture
    def schema(self):
        return compile_schema(parse_dtd(FIGURE1))

    @staticmethod
    def payload(blob: bytes) -> bytes:
        return blob.split(b"\n", 1)[1]

    def test_header_is_versioned(self, schema):
        first_line = encode_artifact(schema).split(b"\n", 1)[0]
        assert first_line == f"{ARTIFACT_MAGIC} {ARTIFACT_FORMAT_VERSION}".encode()

    def test_truncated_payload(self, schema):
        blob = encode_artifact(schema)
        assert decode_artifact(blob[: len(blob) // 2], schema.fingerprint) is None

    def test_garbage_bytes(self, schema):
        garbage = b"\x00\xff garbage, definitely not a pickle \x00"
        assert decode_artifact(garbage, schema.fingerprint) is None

    def test_wrong_magic(self, schema):
        blob = b"some-other-tool 1\n" + self.payload(encode_artifact(schema))
        assert decode_artifact(blob, schema.fingerprint) is None

    @pytest.mark.parametrize("offset", [1, -1, -2])
    def test_any_other_format_version(self, schema, offset):
        """A future version and the older layouts (1 and 2) alike."""
        header = f"{ARTIFACT_MAGIC} {ARTIFACT_FORMAT_VERSION + offset}\n"
        blob = header.encode() + self.payload(encode_artifact(schema))
        assert decode_artifact(blob, schema.fingerprint) is None

    def test_fingerprint_mismatch(self, schema):
        """An artifact of another schema does not satisfy a decode."""
        other = compile_schema(parse_dtd(PLAY))
        assert decode_artifact(encode_artifact(schema), other.fingerprint) is None

    def test_empty_blob(self, schema):
        assert decode_artifact(b"", schema.fingerprint) is None

    def test_field_layout_nodes_load_compare_and_hash(self, schema):
        """Content nodes pickled as field dicts, as a current-version blob
        written before they had a flat pickled form carries them, decode,
        compare equal and hash like freshly parsed ones."""
        schema.coarse  # noqa: B018 - a blob of that age carried it
        payload = io.BytesIO()
        _FieldLayoutPickler(payload, protocol=pickle.HIGHEST_PROTOCOL).dump(schema)
        header = f"{ARTIFACT_MAGIC} {ARTIFACT_FORMAT_VERSION}\n".encode()
        blob = header + payload.getvalue()
        assert b"repro.dtd.ast" in blob and b"_rebuild" not in blob
        loaded = decode_artifact(blob, schema.fingerprint)
        assert loaded is not None
        fresh = parse_dtd(FIGURE1)
        assert loaded.dtd == fresh and hash(loaded.dtd) == hash(fresh)
        assert {loaded.dtd: "cached"}[fresh] == "cached"
        assert loaded.checker("kernel").check_content("r", ["a"])


class TestCompiledSchema:
    def test_pickle_roundtrip(self):
        schema = compile_schema(parse_dtd(FIGURE1))
        clone = pickle.loads(pickle.dumps(schema))
        assert isinstance(clone, CompiledSchema)
        assert clone.fingerprint == schema.fingerprint
        assert clone.dtd == schema.dtd
        checker = PVChecker.from_compiled(clone, algorithm="earley")
        assert checker.is_potentially_valid(parse_xml("<r><a></a></r>"))

    def test_lazy_earley_is_shared(self):
        schema = compile_schema(parse_dtd(FIGURE1))
        assert schema.earley() is schema.earley()
        first = PVChecker.from_compiled(schema, algorithm="earley")
        second = PVChecker.from_compiled(schema, algorithm="earley")
        assert first.compiled.earley() is second.compiled.earley()

    def test_checker_factory(self):
        schema = compile_schema(parse_dtd(FIGURE1))
        for algorithm in ("machine", "figure5", "earley"):
            checker = schema.checker(algorithm)
            assert checker.check_content("r", ["a"])

    def test_the_coarse_summary_is_built_on_first_read(self, monkeypatch):
        """Only the ring client's filter reads the coarse summary, so a
        compile does not build it; the first read does, and the pickle
        carries it from then on."""
        from repro.core.coarse import compile_coarse, encode_coarse
        from repro.service import compiled

        def refuse(dag):
            raise AssertionError("the compile built the coarse summary")

        monkeypatch.setattr(compiled, "compile_coarse", refuse)
        schema = compile_schema(catalog.manuscript())
        assert not schema.has_coarse
        monkeypatch.undo()
        expected = encode_coarse(compile_coarse(schema.dag))
        assert encode_coarse(schema.coarse) == expected
        assert pickle.loads(pickle.dumps(schema)).has_coarse


class TestBatchChecker:
    @pytest.mark.parametrize("dtd_name", ["paper-figure1", "play", "manuscript"])
    @pytest.mark.parametrize("algorithm", ["machine", "figure5", "earley"])
    def test_matches_sequential_checker(self, dtd_name, algorithm):
        dtd = catalog.load(dtd_name)
        documents = _differential_corpus(dtd)
        sequential = PVChecker(dtd, algorithm=algorithm)
        expected = [sequential.check_document(d) for d in documents]
        result = check_batch(dtd, documents, algorithm=algorithm)
        assert result.total == len(documents)
        assert [item.verdict.potentially_valid for item in result.items] == [
            verdict.potentially_valid for verdict in expected
        ]
        # Failure details survive the batch path too.
        for item, verdict in zip(result.items, expected):
            assert item.verdict.failures == verdict.failures

    def test_worker_count_invariance(self):
        dtd = catalog.play()
        documents = _differential_corpus(dtd, seed=11)
        single = BatchChecker(dtd, workers=1).check_documents(documents)
        pooled = BatchChecker(dtd, workers=2).check_documents(documents)
        assert [(i.index, i.ok, i.error) for i in single.items] == [
            (i.index, i.ok, i.error) for i in pooled.items
        ]
        assert pooled.workers == 2

    def test_malformed_document_is_isolated(self):
        dtd = parse_dtd(FIGURE1)
        result = BatchChecker(dtd).check_texts(
            ["<r></r>", "<r><a></r>", "<r><a><c><e></e></c></a></r>"]
        )
        assert result.total == 3
        assert result.error_count == 1
        assert result.items[1].error is not None
        assert result.items[1].verdict is None
        assert not result.all_ok
        assert result.ok_count == 1  # <r></r> is PV; <r><e>. is not
        assert result.rejected_count == 1

    def test_check_paths(self, tmp_path):
        dtd_path = tmp_path / "figure1.dtd"
        dtd_path.write_text(FIGURE1)
        good = tmp_path / "good.xml"
        good.write_text("<r></r>")
        bad = tmp_path / "bad.xml"
        bad.write_text("<r><a><c><e></e></c></a></r>")
        result = BatchChecker(parse_dtd(FIGURE1)).check_paths([good, bad])
        assert result.items[0].ok
        assert result.items[0].label == str(good)
        assert not result.items[1].ok
        assert "blocked" in str(result.items[1])

    def test_labels_pair_with_texts(self):
        checker = BatchChecker(parse_dtd(FIGURE1))
        with pytest.raises(ValueError):
            checker.check_texts(["<r></r>"], labels=["a", "b"])

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            BatchChecker(parse_dtd(FIGURE1), workers=0)

    def test_summary_mentions_throughput(self):
        result = BatchChecker(parse_dtd(FIGURE1)).check_texts(["<r></r>"])
        summary = result.summary()
        assert "1 potentially valid" in summary
        assert "docs/s" in summary
        assert result.documents_per_second > 0


class TestBatchCli:
    @pytest.fixture
    def corpus(self, tmp_path):
        schema = tmp_path / "figure1.dtd"
        schema.write_text(FIGURE1)
        generator = DocumentGenerator(parse_dtd(FIGURE1), seed=5)
        paths = []
        for index, document in enumerate(generator.documents(3, target_nodes=12)):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(to_xml(document))
            paths.append(str(path))
        return str(schema), paths

    def test_all_potentially_valid(self, corpus, capsys):
        schema, paths = corpus
        assert main(["batch", schema, *paths]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("potentially valid") == len(paths)
        assert "docs/s" in captured.err
        assert "algorithm=auto" in captured.err  # the CLI default

    def test_failing_document_sets_exit_one(self, corpus, tmp_path, capsys):
        schema, paths = corpus
        bad = tmp_path / "bad.xml"
        bad.write_text("<r><a><c><e></e></c></a></r>")
        assert main(["batch", schema, *paths, str(bad)]) == 1
        assert "NOT potentially valid" in capsys.readouterr().out

    def test_workers_flag(self, corpus, capsys):
        schema, paths = corpus
        assert main(["batch", schema, *paths, "--workers", "2"]) == 0
        assert "2 worker(s)" in capsys.readouterr().err

    def test_algorithm_flag(self, corpus, capsys):
        schema, paths = corpus
        assert main(["batch", schema, *paths, "--algorithm", "earley"]) == 0
        assert "algorithm=earley" in capsys.readouterr().err

    def test_stats_flag(self, corpus, capsys):
        schema, paths = corpus
        assert main(["batch", schema, *paths, "--stats"]) == 0
        assert "registry:" in capsys.readouterr().err


class TestCliExitCodes:
    """Usage and parse errors must consistently return 2 (never raise)."""

    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_argument(self, tmp_path):
        schema = tmp_path / "s.dtd"
        schema.write_text(FIGURE1)
        assert main(["check", str(schema)]) == 2

    def test_bad_choice(self, tmp_path):
        schema = tmp_path / "s.dtd"
        schema.write_text(FIGURE1)
        doc = tmp_path / "d.xml"
        doc.write_text("<r></r>")
        assert main(["check", str(schema), str(doc), "--algorithm", "nope"]) == 2

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "batch" in capsys.readouterr().out

    def test_batch_rejects_zero_workers(self, tmp_path, capsys):
        schema = tmp_path / "s.dtd"
        schema.write_text(FIGURE1)
        doc = tmp_path / "d.xml"
        doc.write_text("<r></r>")
        assert main(["batch", str(schema), str(doc), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_directory_as_document(self, tmp_path):
        schema = tmp_path / "s.dtd"
        schema.write_text(FIGURE1)
        assert main(["check", str(schema), str(tmp_path)]) == 2


class TestReviewRegressions:
    """Pinned behaviors from the service-layer review pass."""

    def test_mismatched_compiled_artifact_rejected(self):
        figure1 = parse_dtd(FIGURE1)
        other = compile_schema(catalog.play())
        with pytest.raises(ValueError, match="does not match"):
            PVChecker(figure1, compiled=other)

    def test_equal_content_dtd_accepted_as_compiled(self):
        schema = compile_schema(parse_dtd(FIGURE1))
        reparsed = parse_dtd(FIGURE1_REFORMATTED)
        checker = PVChecker(reparsed, compiled=schema)
        assert checker.is_potentially_valid(parse_xml("<r></r>"))

    def test_unreadable_path_does_not_poison_batch(self, tmp_path):
        good = tmp_path / "good.xml"
        good.write_text("<r></r>")
        result = BatchChecker(parse_dtd(FIGURE1)).check_paths(
            [good, tmp_path / "missing.xml", tmp_path]
        )
        assert result.total == 3
        assert result.items[0].ok
        assert result.items[1].error is not None
        assert result.items[2].error is not None  # a directory
        assert result.error_count == 2

    def test_inline_fallback_reports_one_worker(self):
        result = BatchChecker(parse_dtd(FIGURE1), workers=8).check_texts(
            ["<r></r>"]
        )
        assert result.workers == 1  # single task ran inline, no pool


class TestWorkerStatsAggregation:
    """Pool workers keep no registry statistics to aggregate: `batch
    --stats` prints the parent registry's line, pooled or inline."""

    def test_cli_pooled_stats_has_no_pool_line(self, tmp_path, capsys):
        schema = tmp_path / "figure1.dtd"
        schema.write_text(FIGURE1)
        paths = []
        for index in range(4):
            path = tmp_path / f"doc{index}.xml"
            path.write_text("<r></r>")
            paths.append(str(path))
        assert main(["batch", str(schema), *paths, "--workers", "2", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "with 2 worker(s)" in err
        assert "registry:" in err
        assert "pool registry" not in err

    def test_cli_inline_stats_has_no_pool_line(self, tmp_path, capsys):
        schema = tmp_path / "figure1.dtd"
        schema.write_text(FIGURE1)
        doc = tmp_path / "doc.xml"
        doc.write_text("<r></r>")
        assert main(["batch", str(schema), str(doc), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "registry:" in err
        assert "pool registry" not in err
