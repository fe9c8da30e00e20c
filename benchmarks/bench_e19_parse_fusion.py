"""E19 — the fused parse→verdict hot path: same answers, no tree, few parses.

E10-E18 timed the verdict stage over *pre-parsed* documents because XML
parsing dwarfed it — on the kernel tier, parsing ran ~7× the entire
verdict time.  That constant is the hot path's actual ceiling, and this
experiment attacks it end to end: the timed region here is
**parse-inclusive** (text in, verdict out), the claim the fusion work
actually makes.

Three bars on the same skewed corpus:

1. **Equivalence** — document by document, the fused path
   (``PVChecker.check_text``: ``scan_events``, expat or its regex
   loop → interned tag events → streaming kernel, no tree) returns
   exactly the verdict of the reference pipeline (the character
   lexer's tokens built into a tree by ``corpusgen.reference_parse`` →
   ``check_document``), failure tuples included.
2. **Fusion throughput** — text-to-verdict on the kernel tier, the
   fused path clears **2×** the reference pipeline, single core,
   interleaved best-of-rounds (the E15 measurement discipline).
3. **Memo cache** — on a 50%-repeat corpus (every document submitted
   twice — editor and pipeline traffic repeats itself), the batch
   surface with ``verdict_cache`` enabled clears **5×** the reference
   pipeline: the repeats cost a blake2b digest instead of a parse.
   The cache is built fresh inside every timed round, so the bar
   measures the within-run hit rate, never leftovers from a warmup.

``REPRO_BENCH_FAST=1`` shrinks the corpus and relaxes the throughput
bars for the CI smoke job; the equivalence bar never relaxes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# The corpus generators live with the tests they were built for.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import corpusgen  # noqa: E402
from repro.bench.harness import Table, interleaved_best, throughput  # noqa: E402
from repro.core.pv import PVChecker  # noqa: E402
from repro.service.batch import BatchChecker  # noqa: E402
from repro.service.cache import VerdictCache  # noqa: E402
from repro.service.registry import DEFAULT_REGISTRY  # noqa: E402
from repro.xmlmodel.serialize import to_xml  # noqa: E402

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2006"))
#: Documents per shape preset; the full corpus is three shapes' worth.
DOCS_PER_SHAPE = 15 if FAST else 60
#: Mostly-valid traffic: the fused path must win on documents it has to
#: walk to the end, not just on early rejects.
CORRUPT_FRACTION = 0.25
ROUNDS = 3 if FAST else 5
#: The tentpole bar: fused text→verdict vs reference parse-then-check.
REQUIRED_FUSION_RATIO = 1.5 if FAST else 2.0
#: The cache bar on the 50%-repeat corpus.
REQUIRED_CACHED_RATIO = 3.0 if FAST else 5.0


def _corpus_texts(dtd) -> list[str]:
    texts: list[str] = []
    for offset, shape in enumerate(sorted(corpusgen.SHAPES)):
        for document, _provenance in corpusgen.mixed_corpus(
            dtd,
            DOCS_PER_SHAPE,
            seed=SEED + offset,
            corrupt_fraction=CORRUPT_FRACTION,
            shape=shape,
        ):
            texts.append(to_xml(document))
    return texts


def test_e19_parse_fusion(benchmark, manuscript_dtd):
    schema = DEFAULT_REGISTRY.get(manuscript_dtd)
    texts = _corpus_texts(manuscript_dtd)
    checker = PVChecker(manuscript_dtd, algorithm="kernel")
    reference_parse = corpusgen.reference_parse

    # 1. Equivalence first: the fused path must reproduce the reference
    # pipeline's verdicts failure-for-failure.
    reference_verdicts = [
        checker.check_document(reference_parse(text)) for text in texts
    ]
    for text, expected in zip(texts, reference_verdicts):
        fused = checker.check_text(text)
        assert fused.potentially_valid == expected.potentially_valid
        assert fused.failures == expected.failures

    # 2/3. Parse-inclusive throughput, single core (the harness
    # interleaves the arms); the cached arm rebuilds its cache every
    # round so only the within-run repeat rate is measured.
    repeats = texts + texts  # the 50%-repeat corpus

    def reference_pass() -> None:
        for text in texts:
            checker.check_document(reference_parse(text))

    def fused_pass() -> None:
        for text in texts:
            checker.check_text(text)

    def reference_repeat_pass() -> None:
        for text in repeats:
            checker.check_document(reference_parse(text))

    def cached_repeat_pass() -> None:
        batch = BatchChecker(
            schema,
            algorithm="kernel",
            verdict_cache=VerdictCache(len(texts)),
        )
        batch.check_texts(repeats)

    best = interleaved_best(
        {
            "reference": reference_pass,
            "fused": fused_pass,
            "reference-repeat": reference_repeat_pass,
            "cached-repeat": cached_repeat_pass,
        },
        rounds=ROUNDS,
    )
    fusion_ratio = best["reference"] / best["fused"]
    cached_ratio = best["reference-repeat"] / best["cached-repeat"]

    table = Table(
        "E19: fused parse→verdict vs reference pipeline "
        "(manuscript DTD, kernel tier, parse-inclusive, single core)",
        ["arm", "docs", "seconds", "docs/s", "ratio"],
    )
    table.add_row(
        "reference", len(texts), best["reference"],
        throughput(len(texts), best["reference"]), 1.0,
    )
    table.add_row(
        "fused", len(texts), best["fused"],
        throughput(len(texts), best["fused"]), fusion_ratio,
    )
    table.add_row(
        "reference 50% rep", len(repeats), best["reference-repeat"],
        throughput(len(repeats), best["reference-repeat"]), 1.0,
    )
    table.add_row(
        "cached 50% rep", len(repeats), best["cached-repeat"],
        throughput(len(repeats), best["cached-repeat"]), cached_ratio,
    )
    table.print()

    assert fusion_ratio >= REQUIRED_FUSION_RATIO, (
        f"fused path only {fusion_ratio:.2f}x the reference pipeline "
        f"(required {REQUIRED_FUSION_RATIO}x on {len(texts)} documents)"
    )
    assert cached_ratio >= REQUIRED_CACHED_RATIO, (
        f"verdict cache only {cached_ratio:.2f}x the reference pipeline "
        f"on the 50%-repeat corpus (required {REQUIRED_CACHED_RATIO}x)"
    )

    # Headline number: the fused text→verdict sweep.
    benchmark(fused_pass)
