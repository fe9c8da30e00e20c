"""Differential fuzzing: the coarse pass never contradicts a full backend.

The coarse pass (:mod:`repro.core.coarse`) is only allowed three answers,
and only one of them is cheap to get wrong silently: a *definite* outcome
(``accept`` / ``reject``) that a full backend would reverse.  This suite
pushes seeded mixed corpora (valid documents plus single-mutation
corruptions from :mod:`corpusgen`) through the coarse checker — both
feeders of its one walk, the tree and the serialized text (which is what
the ring client's filter runs) — **and** every exact backend, asserting:

* a definite coarse outcome always matches the kernel, machine, and
  Earley verdicts (``uncertain`` promises nothing and is skipped),
* a coarse ``reject`` names a ``(path, element)`` at which the full
  checker also reports a blocked node — the filter loses no diagnostic
  precision,
* the corpus is not vacuous: the coarse stage actually rejects a healthy
  share of the corrupted documents (a regression to all-``uncertain``
  would otherwise pass every agreement test while gutting the pipeline).

Size and seed are environment knobs so CI can scale the run up without a
code change: ``REPRO_FUZZ_SEED`` reseeds the whole corpus (the nightly
job rotates it), ``REPRO_FUZZ_DOCS`` sets documents per DTD (the
coarse-filter smoke job raises it so the run crosses 500 documents).
"""

from __future__ import annotations

import os
import random
from functools import lru_cache

import pytest

import corpusgen
from repro.core.coarse import CoarseChecker
from repro.core.pv import PVChecker
from repro.dtd import catalog
from repro.dtd.parser import parse_dtd
from repro.service.registry import DEFAULT_REGISTRY
from repro.xmlmodel.serialize import to_xml

#: The fuzzing schema pool: the paper's figures plus the document-centric
#: catalog entries, covering seq/choice/star content, mixed content,
#: recursion, and ANY.
DTD_NAMES = (
    "paper-figure1",
    "example5-T1",
    "example6-T2",
    "play",
    "dictionary",
    "manuscript",
    "with-any",
)

#: Exact tiers the definite coarse outcomes are compared against.
BACKENDS = ("kernel", "machine", "earley")

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2006"))
DOCS_PER_DTD = int(os.environ.get("REPRO_FUZZ_DOCS", "30"))

#: (DTD, feeder) pairs.  The tree feeder keeps the bare DTD name as its
#: test id; the serialized text is ``-streamed``.
PASSES = [pytest.param(name, "tree", id=name) for name in DTD_NAMES] + [
    pytest.param(name, "streamed", id=f"{name}-streamed") for name in DTD_NAMES
]


def _coarse_pass(coarse: CoarseChecker, document, how: str):
    if how == "tree":
        return coarse.check_document(document)
    return coarse.check_text(to_xml(document))


@lru_cache(maxsize=None)
def _fixture(name: str):
    """(dtd, coarse checker, backend checkers, corpus) — built once."""
    dtd = catalog.load(name)
    schema = DEFAULT_REGISTRY.get(dtd)
    coarse = CoarseChecker(schema.coarse)
    checkers = {
        backend: PVChecker(dtd, algorithm=backend) for backend in BACKENDS
    }
    corpus = corpusgen.mixed_corpus(
        dtd, DOCS_PER_DTD, seed=SEED, corrupt_fraction=0.6
    )
    return dtd, coarse, checkers, corpus


@pytest.mark.parametrize(("name", "how"), PASSES)
def test_definite_outcomes_agree_with_every_backend(name, how):
    """accept/reject from the coarse pass == every exact backend's verdict."""
    _dtd, coarse, checkers, corpus = _fixture(name)
    for index, (document, provenance) in enumerate(corpus):
        admission = _coarse_pass(coarse, document, how)
        if not admission.definite:
            continue
        expected = admission.outcome == "accept"
        for backend, checker in checkers.items():
            verdict = checker.is_potentially_valid(document)
            assert verdict == expected, (
                name, index, provenance, admission.outcome, backend,
                admission.reason,
            )


@pytest.mark.parametrize(("name", "how"), PASSES)
def test_reject_names_a_node_the_full_checker_also_blocks(name, how):
    """A coarse reject's (path, element) appears among the full failures."""
    _dtd, coarse, checkers, corpus = _fixture(name)
    kernel = checkers["kernel"]
    for index, (document, provenance) in enumerate(corpus):
        admission = _coarse_pass(coarse, document, how)
        if admission.outcome != "reject":
            continue
        verdict = kernel.check_document(document)
        assert not verdict.potentially_valid, (name, index, provenance)
        blocked = {(failure.path, failure.element) for failure in verdict.failures}
        assert (admission.path, admission.element) in blocked, (
            name, index, provenance, admission.path, admission.element, blocked,
        )


def test_corpus_is_not_vacuous():
    """The pipeline must short-circuit a healthy share of corrupt documents.

    A coarse stage that answered ``uncertain`` for everything would pass
    every agreement test above while rejecting nothing; this pins the
    aggregate reject rate over the corrupted slice of the whole pool.
    """
    corrupt = rejected = 0
    for name in DTD_NAMES:
        _dtd, coarse, _checkers, corpus = _fixture(name)
        for document, provenance in corpus:
            if provenance == "valid":
                continue
            corrupt += 1
            if coarse.check_document(document).outcome == "reject":
                rejected += 1
    assert corrupt > 0
    assert rejected >= 0.3 * corrupt, (
        f"coarse stage rejected only {rejected}/{corrupt} corrupted documents"
    )


def test_definite_accepts_agree_on_an_all_mixed_schema():
    """Mixed-content trees are where the coarse pass answers accept.

    The catalog corpora are element-structured (mostly ``uncertain``), so
    the accept leg gets deliberate coverage: an all-mixed DTD accepts any
    tree over its declared tags, and every backend must concur document
    by document — including on single mutations, where a renamed-to-alien
    tag must flip the coarse answer to a (still agreeing) reject.
    """
    dtd = parse_dtd(
        "<!ELEMENT r (#PCDATA | a | b)*>"
        "<!ELEMENT a (#PCDATA | b)*>"
        "<!ELEMENT b (#PCDATA)>"
    )
    coarse = CoarseChecker(DEFAULT_REGISTRY.get(dtd).coarse)
    checkers = {backend: PVChecker(dtd, algorithm=backend) for backend in BACKENDS}
    documents = corpusgen.valid_documents(dtd, 10, seed=SEED)
    rng = random.Random(SEED)
    accepts = 0
    pool = []
    for document in documents:
        pool.append(document)
        mutated = corpusgen.mutate(document, dtd, rng)
        if mutated is not None:
            pool.append(mutated[0])
    for index, document in enumerate(pool):
        admission = coarse.check_document(document)
        assert admission.definite, (index, admission.reason)
        accepts += admission.outcome == "accept"
        expected = admission.outcome == "accept"
        for backend, checker in checkers.items():
            assert checker.is_potentially_valid(document) == expected, (
                index, backend, admission.outcome,
            )
    assert accepts > 0, "all-mixed corpus produced no definite accepts"


def test_fuzz_knobs_change_the_corpus():
    """REPRO_FUZZ_SEED / REPRO_FUZZ_DOCS really steer generation."""
    dtd = catalog.load("paper-figure1")
    a = corpusgen.mixed_corpus(dtd, 8, seed=1)
    b = corpusgen.mixed_corpus(dtd, 8, seed=2)
    a_again = corpusgen.mixed_corpus(dtd, 8, seed=1)
    from repro.xmlmodel.serialize import to_xml

    def render(corpus):
        return [(to_xml(doc), prov) for doc, prov in corpus]
    assert render(a) == render(a_again), "same seed must reproduce the corpus"
    assert render(a) != render(b), "different seeds must differ"
    assert len(corpusgen.mixed_corpus(dtd, 3, seed=1)) == 3
