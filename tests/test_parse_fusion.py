"""The fused parse→verdict hot path never changes an answer.

Document text has one scanner, :func:`repro.xmlmodel.fastlex.scan_events`;
the reference character lexer (:mod:`repro.xmlmodel.lexer`) is its
fallback for hard tags and its oracle.  Each seam gets a differential:

* **Scanner** — the fast tokenizer's events must be *exactly* the
  reference lexer's tokens under the reference parser's document rules
  (:func:`corpusgen.reference_tokens`) mapped to events: kind, name,
  text, the start tags' attributes, and each position (``_loc`` of the
  event's offset against the token's line and column), including every
  error's type, message and position.
* **Tree builder** — :func:`~repro.xmlmodel.parser.parse_xml` builds its
  tree from those events; it must return the tree of the reference
  parser (:func:`corpusgen.reference_parse`, those tokens built into a
  tree) node for node, attributes and unmerged text nodes included, or
  raise its exact error.
* **Treeless checking** — the one event walk
  (:mod:`repro.core.stream`), fed by the scanner or by a tree, must
  return the verdict of an independent explicit-stack tree oracle
  (:func:`_oracle`) *failure-for-failure* on every backend, and the
  coarse pass must report the same verdict (outcome, node and reason)
  from a tree as from its text.
* **The memo cache** — :class:`repro.service.cache.VerdictCache` keyed by
  ``(fingerprint, digest, mode)`` must replay verdicts exactly, and the
  surfaces threaded through it (dispatcher, batch, server) must answer
  repeats from it without changing a single verdict field.
* **Byte mutants** — each corpus text, with one seeded byte-level edit
  (:func:`corpusgen.mutate_bytes`), must pass the scanner and tree
  differentials; every text surface must raise ``parse_xml``'s exact
  error on a malformed mutant and give the tree path's answer on a
  well-formed one.

Corpora come from :mod:`corpusgen`; ``REPRO_FUZZ_SEED`` and
``REPRO_FUZZ_DOCS`` scale the run exactly as in the admission suite (CI's
``scanner-differential`` job runs this module at 200 documents per DTD).
"""

from __future__ import annotations

import os
import random
from functools import partial

import pytest

import corpusgen
from repro.core.coarse import CoarseChecker
from repro.core.pv import NodeFailure, PVChecker
from repro.core.stream import stream_check_document, stream_coarse_check
from repro.dtd import catalog
from repro.dtd.analysis import DTDClass
from repro.errors import ReproError
from repro.service.batch import BatchChecker
from repro.service.cache import VerdictCache
from repro.service.dispatch import BackendDispatcher
from repro.service.registry import DEFAULT_REGISTRY
from repro.xmlmodel.delta import content_symbols
from repro.xmlmodel.fastlex import (
    EV_END,
    EV_START,
    EV_TEXT,
    _loc,
    scan_events,
    tag_attributes,
)
from repro.xmlmodel.lexer import XmlTokenKind
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import XmlText

DTD_NAMES = ("paper-figure1", "play", "dictionary", "manuscript", "with-any")
#: The admission suite's pool: the catalog names plus the paper's
#: recursive examples.
POOL_NAMES = DTD_NAMES + ("example5-T1", "example6-T2")

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2006"))
DOCS_PER_DTD = int(os.environ.get("REPRO_FUZZ_DOCS", "24"))


def _corpus(name: str) -> list:
    corpus = corpusgen.mixed_corpus(
        catalog.load(name), DOCS_PER_DTD, seed=SEED, corrupt_fraction=0.6
    )
    return list(corpusgen.corpus_documents(corpus))


def _corpus_texts(name: str) -> list[str]:
    return [to_xml(document) for document in _corpus(name)]


# -- scanner differential ----------------------------------------------------

#: Handcrafted sources covering every lexer construct and quirk: CDATA
#: merging into adjacent text, empty CDATA, entity forms, attribute
#: whitespace freedom, comments/PIs/DOCTYPE, and multi-line positions.
HANDCRAFTED = (
    "<r/>",
    "<r></r>",
    "<r a='1' b=\"two\"/>",
    '<r a="x"b="y"/>',
    "<r>text</r>",
    "<r>a<!--comment-->b</r>",
    "<r><![CDATA[raw <&>]]></r>",
    "<r><![CDATA[]]></r>",
    "<r>pre<![CDATA[mid]]>post</r>",
    "<r>&lt;&gt;&amp;&apos;&quot;</r>",
    "<r>&#65;&#x41;&#x6a;</r>",
    "<r>&#X41;&#9;&#xD;&#xD7FF;&#xE000;&#x10FFFF;</r>",
    "<r a='&amp;&#x3C;'>x</r>",
    "<?xml version='1.0'?>\n<r/>",
    "<!DOCTYPE r [<!ELEMENT r EMPTY>]>\n<r/>",
    "<!DOCTYPE r SYSTEM 'r.dtd'>\n<r/>",
    "<r>\n  <a>one</a>\n  <a>two</a>\n</r>",
    "<ns:r xmlns:ns='u'><ns:a/></ns:r>",
    "  \n\t<r/>\n  ",
    "<r><a/><a></a><a x='y'/></r>",
)

#: Sources the lexer must reject — the scanner has to raise the
#: byte-identical message at the byte-identical position.
MALFORMED = (
    "<r",
    "<r a=1/>",
    "<r a='1/>",
    "< r/>",
    "</r x>",
    "<r><a attr></a></r>",
    "<r>&unknown;</r>",
    "<r>&lt</r>",
    "<r>&;</r>",
    "<r>&#xZZ;</r>",
    "<r a='<'/>",
    "<!DOCTYPE r [<!ELEMENT r EMPTY>",
    "<r><!-- never closed </r>",
    "<r><![CDATA[never closed</r>",
    "<r><?pi never closed</r>",
    "<r/",
    "</r/>",
    # Character references the lexer's one decoder rejects: not ASCII
    # digits of their base, empty, or not an XML 1.0 ``Char``.
    "<r>&#x99999999;</r>",
    "<r>&#;</r>",
    "<r>&#x;</r>",
    "<r a='&#xZZ;'/>",
    "<r>&#+65;</r>",
    "<r>&# 65;</r>",
    "<r>&#1_0;</r>",
    "<r>&#\u0663;</r>",
    "<r>&#0;</r>",
    "<r>&#xD800;</r>",
)


#: Well-formed token streams that are not documents: the tree builder's
#: own errors, each positioned at the offending token.
NOT_DOCUMENTS = (
    "",
    "  \n",
    "stray<r/>",
    "<r/>stray",
    "<r/><r/>",
    "<r></a>",
    "</r>",
    "<r><a></r>",
    "<r><a>",
    "<r>\n<a>",
    "</r >x",
)


def _error(error: Exception) -> tuple:
    """An error's type, message and position."""
    where = (getattr(error, "line", None), getattr(error, "column", None))
    return type(error), str(error), where


def _outcome(events) -> tuple:
    """Everything *events* yields, then its error, or ``None`` when it
    ends cleanly."""
    seen = []
    try:
        for event in events:
            seen.append(event)
    except Exception as error:
        return seen, _error(error)
    return seen, None


def _scanned(source: str):
    """``scan_events``, each offset as its (line, column), each start tag
    with the attributes :func:`tag_attributes` re-reads at its offset."""
    for kind, payload, offset in scan_events(source):
        attributes = tag_attributes(source, offset) if kind == EV_START else ()
        yield kind, payload, attributes, _loc(source, offset)


def _reference_events(source: str):
    """The reference lexer's tokens under the document rules, mapped to
    events."""
    for token in corpusgen.reference_tokens(source):
        where = (token.line, token.column)
        if token.kind is XmlTokenKind.TEXT:
            yield EV_TEXT, token.text, (), where
        elif token.kind is XmlTokenKind.END_TAG:
            yield EV_END, token.name, (), where
        else:
            yield EV_START, token.name, token.attributes, where
            if token.kind is XmlTokenKind.EMPTY_TAG:
                yield EV_END, token.name, (), where


@pytest.mark.parametrize("source", HANDCRAFTED)
def test_fast_tokenizer_matches_reference_handcrafted(source):
    scanned = _outcome(_scanned(source))
    assert scanned == _outcome(_reference_events(source))
    assert scanned[1] is None


@pytest.mark.parametrize("source", MALFORMED + NOT_DOCUMENTS)
def test_fast_tokenizer_matches_reference_errors(source):
    scanned = _outcome(_scanned(source))
    assert scanned == _outcome(_reference_events(source))
    assert scanned[1] is not None


@pytest.mark.parametrize("name", POOL_NAMES)
def test_fast_tokenizer_matches_reference_on_corpus(name):
    for text in _corpus_texts(name):
        assert _outcome(_scanned(text)) == _outcome(_reference_events(text)), (
            f"event divergence on: {text[:120]!r}"
        )


# -- tree builder differential -----------------------------------------------


def _tree_shape(document) -> list:
    """Pre-order (kind, name or text, attributes) of every node, with an
    end marker per element, so text nodes are compared unmerged."""
    shape = []
    pending = [document.root]
    while pending:
        node = pending.pop()
        if node is None:
            shape.append(("end",))
        elif isinstance(node, XmlText):
            shape.append(("text", node.text))
        else:
            shape.append(("element", node.name, tuple(node.attributes.items())))
            pending.append(None)
            pending.extend(reversed(node.children))
    return shape


def _parsed(parse, source: str) -> tuple:
    try:
        return _tree_shape(parse(source)), None
    except Exception as error:
        return None, _error(error)


@pytest.mark.parametrize("source", HANDCRAFTED + MALFORMED + NOT_DOCUMENTS)
def test_parse_xml_matches_the_reference_parser(source):
    assert _parsed(parse_xml, source) == _parsed(corpusgen.reference_parse, source)


@pytest.mark.parametrize("name", POOL_NAMES)
def test_parse_xml_matches_the_reference_parser_on_corpus(name):
    for text in _corpus_texts(name):
        parsed = _parsed(parse_xml, text)
        assert parsed[1] is None
        assert parsed == _parsed(corpusgen.reference_parse, text), text[:120]


# -- treeless checking differential ------------------------------------------


@pytest.mark.parametrize("name", DTD_NAMES)
def test_stream_kernel_verdicts_identical_to_tree(name):
    """Fused kernel checking == parse-then-check, failure tuples included."""
    dtd = catalog.load(name)
    schema = DEFAULT_REGISTRY.get(dtd)
    checker = PVChecker(dtd, algorithm="kernel")
    for text in _corpus_texts(name):
        streamed = stream_check_document(schema, text)
        treed = checker.check_document(parse_xml(text))
        assert streamed.potentially_valid == treed.potentially_valid
        assert streamed.failures == treed.failures
        assert streamed.depth_limited == treed.depth_limited
        # The public fused entry point takes the same shortcut.
        assert checker.check_text(text).failures == treed.failures


def _oracle(checker: PVChecker, text: str) -> tuple:
    """Problem PV by an explicit-stack pre-order traversal of the parsed
    tree, calling ``check_content`` once per node: a second, independent
    implementation of the walk's failure list, undeclared-element
    suppression, root check and ``depth_limited``."""
    try:
        root = parse_xml(text).root
    except ReproError as error:
        return (None, (), None, str(error))
    dtd = checker.dtd
    if root.name != dtd.root:
        reason = f"document root is <{root.name}> but the DTD root is <{dtd.root}>"
        return (False, (NodeFailure("/", root.name, (), reason),), False, None)
    failures = []
    stack = [(root, f"/{root.name}")]
    while stack:
        node, path = stack.pop()
        if node.name not in dtd:
            reason = f"element type <{node.name}> is not declared in the DTD"
            failures.append(NodeFailure(path, node.name, (), reason))
            continue
        symbols = tuple(content_symbols(node))
        try:
            ok = checker.check_content(node.name, symbols)
        except ReproError as error:
            return (None, (), None, str(error))
        if not ok:
            reason = "content cannot be completed by tag insertions alone"
            failures.append(NodeFailure(path, node.name, symbols, reason))
        children = node.element_children()
        for index in reversed(range(len(children))):
            child = children[index]
            stack.append((child, f"{path}/{child.name}[{index}]"))
    bounded = checker.analysis.dtd_class is DTDClass.PV_STRONG_RECURSIVE and (
        checker.algorithm == "figure5"
        or (checker.algorithm == "machine" and checker.machine_depth is not None)
    )
    return (not failures, tuple(failures), bool(failures) and bounded, None)


def _answer(check, argument) -> tuple:
    try:
        verdict = check(argument)
    except ReproError as error:
        return (None, (), None, str(error))
    return (verdict.potentially_valid, verdict.failures, verdict.depth_limited, None)


@pytest.mark.parametrize("algorithm", ("kernel", "machine", "figure5", "earley"))
@pytest.mark.parametrize("name", DTD_NAMES + ("example5-T1",))
def test_every_backend_matches_the_tree_oracle(name, algorithm):
    """``check_text`` and ``check_document`` == the oracle, on every backend.

    ``example5-T1`` is PV-strong recursive, so figure5's "no" answers
    there are ``depth_limited``.
    """
    dtd = catalog.load(name)
    checker = PVChecker(dtd, algorithm=algorithm)
    texts = _corpus_texts(name)
    root = dtd.root
    texts += [
        texts[0][:-1],
        texts[0].replace("</", "<", 1),
        texts[0] + texts[0],
        f"<not-{root}><{root}/></not-{root}>",
        f"<{root}><undeclared><{root}/>text</undeclared></{root}>",
    ]
    answers = {"depth_limited": 0, "no": 0, "error": 0}
    for text in texts:
        expected = _oracle(checker, text)
        assert _answer(checker.check_text, text) == expected, text[:120]
        if expected[3] is None:
            tree = parse_xml(text)
            assert _answer(checker.check_document, tree) == expected, text[:120]
        answers["depth_limited"] += expected[2] is True
        answers["no"] += expected[0] is False
        answers["error"] += expected[3] is not None
    assert answers["no"] >= 2 and answers["error"] >= 3
    if name == "example5-T1" and algorithm == "figure5":
        assert answers["depth_limited"] > 0


@pytest.mark.parametrize("name", POOL_NAMES)
def test_stream_coarse_outcomes_identical_to_tree(name):
    """The coarse pass's two feeders give one verdict: a corpus tree, its
    text, and the text parsed back agree on outcome, node and reason."""
    schema = DEFAULT_REGISTRY.get(catalog.load(name))
    coarse = CoarseChecker(schema.coarse)
    for document in _corpus(name):
        text = to_xml(document)
        treed = coarse.check_document(document)
        assert coarse.check_text(text) == treed, text[:120]
        assert stream_coarse_check(schema.coarse, text) == treed
        assert coarse.check_document(parse_xml(text)) == treed


@pytest.mark.parametrize(
    "source",
    (
        "<manuscript><unclosed>",
        "<manuscript></mismatch>",
        "stray text",
        "",
        "<a/><b/>",
    ),
)
def test_stream_checking_raises_reference_errors(source):
    """Malformed input fails the fused path with the parser's exact error."""
    schema = DEFAULT_REGISTRY.get(catalog.manuscript())
    try:
        parse_xml(source)
    except ReproError as error:
        expected = str(error)
    else:  # pragma: no cover - every case above is malformed
        pytest.fail("case is well-formed")
    with pytest.raises(ReproError) as streamed:
        stream_check_document(schema, source)
    assert str(streamed.value) == expected
    with pytest.raises(ReproError) as coarse:
        stream_coarse_check(schema.coarse, source)
    assert str(coarse.value) == expected


# -- byte-level mutants ------------------------------------------------------

#: Seeded byte-level mutants per corpus text; the corpus itself scales
#: with ``REPRO_FUZZ_DOCS``.
MUTANTS_PER_TEXT = 3

ALGORITHMS = ("kernel", "machine", "figure5", "earley")


def _mutants(name: str) -> list[str]:
    rng = random.Random(f"{SEED}-{name}")
    return [
        corpusgen.mutate_bytes(text, rng)
        for text in _corpus_texts(name)
        for _ in range(MUTANTS_PER_TEXT)
    ]


def _raised(check, argument):
    """The error ``check(argument)`` raises, as :func:`_error` gives it,
    or ``None``."""
    try:
        check(argument)
    except Exception as error:
        return _error(error)
    return None


@pytest.mark.parametrize("name", POOL_NAMES)
def test_byte_mutants_match_the_reference(name):
    """Byte-level mutants of the corpus keep every differential.

    The scanner's events and error equal the reference tokens', and
    ``parse_xml`` equals the reference parser.  A malformed mutant fails
    the fused kernel pass, every backend's ``check_text`` and the coarse
    pass with ``parse_xml``'s exact error; a well-formed one gets the
    tree path's answer from each.
    """
    dtd = catalog.load(name)
    schema = DEFAULT_REGISTRY.get(dtd)
    checkers = [PVChecker(dtd, algorithm=algorithm) for algorithm in ALGORITHMS]
    coarse = CoarseChecker(schema.coarse)
    fused = partial(stream_check_document, schema)
    coarse_text = partial(stream_coarse_check, schema.coarse)
    text_surfaces = [fused, coarse_text] + [c.check_text for c in checkers]
    mutants = _mutants(name)
    well_formed = 0
    for text in mutants:
        scanned = _outcome(_scanned(text))
        assert scanned == _outcome(_reference_events(text)), text[:120]
        parsed = _parsed(parse_xml, text)
        assert parsed == _parsed(corpusgen.reference_parse, text), text[:120]
        error = parsed[1]
        if error is not None:
            for check in text_surfaces:
                assert _raised(check, text) == error, (check, text[:120])
            continue
        well_formed += 1
        tree = parse_xml(text)
        kernel = checkers[0]
        assert _answer(fused, text) == _answer(kernel.check_document, tree), text[:120]
        for checker in checkers:
            assert _answer(checker.check_text, text) == _answer(
                checker.check_document, tree
            ), (checker.algorithm, text[:120])
        assert coarse_text(text) == coarse.check_document(tree), text[:120]
    assert 0 < well_formed < len(mutants)


# -- the verdict memo cache --------------------------------------------------


def test_verdict_cache_lru_hit_miss_evict():
    cache = VerdictCache(2)
    k1 = cache.key("fp", "<a/>", "kernel")
    k2 = cache.key("fp", "<b/>", "kernel")
    k3 = cache.key("fp", "<c/>", "kernel")
    assert cache.get(k1) is None
    assert not cache.put(k1, "v1")
    assert not cache.put(k2, "v2")
    assert cache.get(k1) == "v1"  # freshens k1: k2 is now LRU
    assert cache.put(k3, "v3")  # evicts k2
    assert cache.get(k2) is None
    assert cache.get(k1) == "v1"
    assert cache.get(k3) == "v3"
    assert cache.stats == {
        "hits": 3,
        "misses": 2,
        "evictions": 1,
        "size": 2,
        "maxsize": 2,
    }


def test_verdict_cache_key_separates_schema_and_mode():
    text = "<r/>"
    assert VerdictCache.key("fp1", text, "kernel") != VerdictCache.key(
        "fp2", text, "kernel"
    )
    assert VerdictCache.key("fp1", text, "kernel") != VerdictCache.key(
        "fp1", text, "machine"
    )
    assert VerdictCache.key("fp1", text, "kernel") == VerdictCache.key(
        "fp1", text, "kernel"
    )


def test_verdict_cache_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        VerdictCache(0)


def test_dispatcher_check_text_uses_cache():
    schema = DEFAULT_REGISTRY.get(catalog.manuscript())
    cache = VerdictCache(16)
    dispatcher = BackendDispatcher(schema, verdict_cache=cache)
    text = to_xml(
        corpusgen.valid_documents(catalog.manuscript(), 1, seed=SEED)[0]
    )
    first = dispatcher.check_text(text)
    assert first.cached is False
    replay = dispatcher.check_text(text)
    assert replay.cached is True
    assert replay.verdict is first.verdict
    assert cache.stats["hits"] == 1
    # An int size builds the cache internally; no cache means no replay.
    assert BackendDispatcher(schema, verdict_cache=16).verdict_cache is not None
    bare = BackendDispatcher(schema)
    checked = bare.check_text(text)
    assert checked.cached is False
    assert checked.verdict.potentially_valid == first.verdict.potentially_valid


def test_batch_checker_replays_repeats_from_cache():
    dtd = catalog.manuscript()
    schema = DEFAULT_REGISTRY.get(dtd)
    texts = [
        to_xml(document)
        for document in corpusgen.valid_documents(dtd, 3, seed=SEED)
    ]
    cache = VerdictCache(16)
    checker = BatchChecker(schema, algorithm="kernel", verdict_cache=cache)
    baseline = BatchChecker(schema, algorithm="kernel")
    first = checker.check_texts(texts + texts)
    plain = baseline.check_texts(texts + texts)
    assert [item.ok for item in first.items] == [item.ok for item in plain.items]
    assert cache.stats["hits"] == len(texts)
    assert cache.stats["misses"] == len(texts)


def test_server_stamps_cached_replies(tmp_path):
    from repro.server.client import ValidationClient
    from repro.server.server import ServerThread

    dtd_text = "<!ELEMENT r (a*)>\n<!ELEMENT a (#PCDATA)>"
    doc = "<r><a>x</a></r>"
    with ServerThread(
        unix_path=str(tmp_path / "pv.sock"), verdict_cache=8
    ) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:
            cold = client.check(dtd_text, doc)
            warm = client.check(dtd_text, doc)
            assert "cached" not in cold
            assert warm.get("cached") is True
            assert warm["potentially_valid"] == cold["potentially_valid"]
            replies, _trailer = client.check_batch(dtd_text, [doc, "<r/>"])
            assert replies[0].get("cached") is True
            assert "cached" not in replies[1]
            stats = client.stats()["server"]["verdict_cache"]
            assert stats["hits"] == 2 and stats["misses"] == 2
            exposition = client.metrics()["prometheus"]
            assert "repro_verdict_cache_total" in exposition
