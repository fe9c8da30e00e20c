"""Shared fixtures: the paper's DTDs and documents, checker factories."""

from __future__ import annotations

import random

import pytest

from repro import PVChecker, parse_xml
from repro.dtd import catalog
from repro.xmlmodel.tree import XmlDocument

# The paper's Example 1 strings, verbatim (whitespace included).
EXAMPLE1_W = (
    "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>"
)
EXAMPLE1_S = (
    "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>"
)
EXAMPLE1_W_PRIME = (
    "<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c>"
    "<d> dog<e></e></d></a></r>"
)

ALGORITHMS = ("kernel", "machine", "figure5", "earley")

#: Catalog DTDs that satisfy the paper's standing assumptions (all usable)
#: and are practical for differential testing.
DIFFERENTIAL_DTDS = (
    "paper-figure1",
    "example5-T1",
    "example6-T2",
    "tei-lite",
    "xhtml-basic",
    "docbook-article",
    "play",
    "dictionary",
    "manuscript",
    "strong-chain",
    "with-any",
)


@pytest.fixture
def fig1():
    return catalog.paper_figure1()


@pytest.fixture
def t1():
    return catalog.example5_t1()


@pytest.fixture
def t2():
    return catalog.example6_t2()


@pytest.fixture
def doc_w() -> XmlDocument:
    return parse_xml(EXAMPLE1_W)


@pytest.fixture
def doc_s() -> XmlDocument:
    return parse_xml(EXAMPLE1_S)


@pytest.fixture
def doc_w_prime() -> XmlDocument:
    return parse_xml(EXAMPLE1_W_PRIME)


@pytest.fixture(params=ALGORITHMS)
def algorithm(request) -> str:
    return request.param


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20060411)  # ICDE 2006 vintage


def checker(dtd, algorithm: str = "machine", **kwargs) -> PVChecker:
    return PVChecker(dtd, algorithm=algorithm, **kwargs)
