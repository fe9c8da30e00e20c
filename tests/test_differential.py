"""Differential tests: all checkers must agree (or their divergences are pinned).

The exactness ladder:

* ``PVMachine`` (merged, unbounded)  — exact for all DTDs,
* per-node content-grammar Earley    — exact reference (Theorem 1 per node),
* whole-document Earley on ``G'``    — Theorem 1 verbatim,
* Figure-5 ECRecognizer (refined)    — the paper's algorithm + prose rules,
* naive bounded ``Ext(w, T)`` search — Definitions 2-3 literally.

Random valid documents, their Theorem-2 degradations, and structure-breaking
corruptions are pushed through all of them.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.earley_pv import EarleyDocumentChecker
from repro.core.pv import PVChecker
from repro.dtd import catalog
from repro.dtd.random_gen import RandomDTDConfig, random_dtd
from repro.workloads.corrupt import corrupt_inject, corrupt_rename, corrupt_swap
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator

DTD_NAMES = (
    "paper-figure1",
    "example6-T2",
    "play",
    "dictionary",
    "manuscript",
    "tei-lite",
    "docbook-article",
    "with-any",
)

#: Seeded random DTDs for the figure5 differential: the catalog alone
#: never exercised an occupied and a fresh node at one position.
RANDOM_DTD_CONFIGS = tuple(
    RandomDTDConfig(
        elements=8 + i % 9,
        seed=i,
        recursion=("none", "weak", "strong")[i % 3],
        name_prefix=f"t{i}x",
    )
    for i in range(60)
)


def _variants(dtd, seed: int):
    """Generate a mixed bag of documents: valid, degraded, corrupted."""
    rng = random.Random(seed)
    generator = DocumentGenerator(dtd, seed=seed)
    for document in generator.documents(3, target_nodes=18, max_depth=8):
        yield document
        degraded, _count = degrade(document, rng, fraction=0.6)
        yield degraded
        swapped = corrupt_swap(document, rng)
        if swapped is not None:
            yield swapped
        renamed = corrupt_rename(document, rng, dtd.element_names())
        if renamed is not None:
            yield renamed
        yield corrupt_inject(document, rng, rng.choice(dtd.element_names()))


@pytest.mark.parametrize("name", DTD_NAMES)
def test_machine_agrees_with_earley_per_node(name):
    dtd = catalog.load(name)
    machine_checker = PVChecker(dtd, algorithm="machine")
    earley_checker = PVChecker(dtd, algorithm="earley")
    for index, document in enumerate(_variants(dtd, seed=101)):
        machine_verdict = machine_checker.is_potentially_valid(document)
        earley_verdict = earley_checker.is_potentially_valid(document)
        assert machine_verdict == earley_verdict, (name, index)


@pytest.mark.parametrize("name", DTD_NAMES)
def test_per_node_agrees_with_whole_document_earley(name):
    """Section 4's reduction: node-wise ECPV == whole-document G' parsing."""
    dtd = catalog.load(name)
    machine_checker = PVChecker(dtd, algorithm="machine")
    whole = EarleyDocumentChecker(dtd)
    for index, document in enumerate(_variants(dtd, seed=77)):
        node_wise = machine_checker.is_potentially_valid(document)
        document_wise = whole.is_potentially_valid(document)
        assert node_wise == document_wise, (name, index)


@pytest.mark.parametrize(
    "name",
    DTD_NAMES + RANDOM_DTD_CONFIGS,
    ids=lambda name: name if isinstance(name, str) else f"random-{name.seed}",
)
def test_figure5_refined_agrees_on_workloads(name):
    """The refined Figure-5 recognizer matches the exact machine on all
    generated workloads, over the catalog and seeded random DTDs.
    (Verbatim mode has pinned divergences, F-A1.)"""
    dtd = catalog.load(name) if isinstance(name, str) else random_dtd(name)
    machine_checker = PVChecker(dtd, algorithm="machine")
    figure5_checker = PVChecker(dtd, algorithm="figure5")
    for index, document in enumerate(_variants(dtd, seed=55)):
        machine_verdict = machine_checker.is_potentially_valid(document)
        figure5_verdict = figure5_checker.is_potentially_valid(document)
        assert machine_verdict == figure5_verdict, (name, index)


@pytest.mark.parametrize("name", ("paper-figure1", "example6-T2", "play"))
def test_naive_oracle_consistency(name):
    """Soundness against Definitions 2-3: whenever the bounded naive search
    finds a valid extension, every checker must say yes; whenever it
    refutes the bounded question, the checker may only say yes if the
    completion genuinely needs more insertions than the bound."""
    dtd = catalog.load(name)
    from repro.baselines.naive import naive_potential_validity
    from repro.core.completion import CompletionError, complete_document

    bound = 3
    machine_checker = PVChecker(dtd, algorithm="machine")
    rng = random.Random(9)
    generator = DocumentGenerator(dtd, seed=5)
    for document in generator.documents(4, target_nodes=6, max_depth=4):
        for candidate in (
            document,
            degrade(document, rng, fraction=0.8)[0],
            corrupt_inject(document, rng, rng.choice(dtd.element_names())),
        ):
            oracle = naive_potential_validity(
                dtd, candidate, max_insertions=bound, node_limit=60_000
            )
            verdict = machine_checker.is_potentially_valid(candidate)
            if oracle is True:
                assert verdict, candidate
            elif oracle is False:
                if verdict:
                    # The checker found it PV: there must be a completion,
                    # and it must need more insertions than the bound
                    # (note: completion is not guaranteed minimal, so this
                    # is a one-sided consistency check).
                    result = complete_document(dtd, candidate)
                    assert result.inserted > bound, (name, result.inserted)
                else:
                    with pytest.raises(CompletionError):
                        complete_document(dtd, candidate)


def test_content_level_exhaustive_small_alphabet(fig1):
    """Exhaustive differential over all content sequences up to length 3
    for every element of the Figure 1 DTD: machine == per-node Earley."""
    from itertools import product

    from repro.grammar.build import build_content_cfg, content_nonterminal
    from repro.grammar.earley import EarleyRecognizer
    from repro.core.machine import PVMachine
    from repro.xmlmodel.delta import SIGMA

    alphabet = list(fig1.element_names()) + [SIGMA]
    earley = EarleyRecognizer(build_content_cfg(fig1))
    mismatches = []
    for element in fig1.element_names():
        start = content_nonterminal(element)
        for length in range(0, 3):
            for tokens in product(alphabet, repeat=length):
                # Delta never yields adjacent sigmas.
                if any(
                    tokens[i] == SIGMA and tokens[i + 1] == SIGMA
                    for i in range(len(tokens) - 1)
                ):
                    continue
                exact = PVMachine.for_dtd(fig1, element).recognize(tokens)
                reference = earley.recognizes(list(tokens), start=start)
                if exact != reference:
                    mismatches.append((element, tokens, exact, reference))
    assert not mismatches, mismatches[:10]


def test_content_level_exhaustive_t2(t2):
    from itertools import product

    from repro.grammar.build import build_content_cfg, content_nonterminal
    from repro.grammar.earley import EarleyRecognizer
    from repro.core.machine import PVMachine

    alphabet = ["a", "b"]
    earley = EarleyRecognizer(build_content_cfg(t2))
    for element in alphabet:
        start = content_nonterminal(element)
        for length in range(0, 5):
            for tokens in product(alphabet, repeat=length):
                exact = PVMachine.for_dtd(t2, element).recognize(tokens)
                reference = earley.recognizes(list(tokens), start=start)
                assert exact == reference, (element, tokens)
