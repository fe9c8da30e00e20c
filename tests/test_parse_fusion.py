"""The fused parse→verdict hot path never changes an answer.

Document text has one scanner, :func:`repro.xmlmodel.fastlex.scan_events`,
which reads with stdlib expat when the text allows and with its regex
reference loop otherwise; the reference character lexer
(:mod:`repro.xmlmodel.lexer`) is that loop's fallback for hard tags and
the oracle of both.  Each seam gets a differential:

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
  surfaces threaded through it (``check_text``, batch, server) must answer
  repeats from it without changing a single verdict field.
* **Byte mutants** — each corpus text, with one seeded byte-level edit
  (:func:`corpusgen.mutate_bytes`), must pass the scanner and tree
  differentials; every text surface must raise ``parse_xml``'s exact
  error on a malformed mutant and give the tree path's answer on a
  well-formed one.
* **The expat fast path** — every corpus shape is read by expat alone
  (no call into the reference loop), each construct kept off the fast
  path goes to the loop, chunk boundaries a few characters apart change
  no event, an expat error after events went out is the reference's
  error on every text surface, the scan streams, and one-edit mutants
  over the fast path's alphabet (:func:`corpusgen.mutate_fast_path`)
  pit expat's accept/reject decisions against the reference's.

Corpora come from :mod:`corpusgen`; ``REPRO_FUZZ_SEED`` and
``REPRO_FUZZ_DOCS`` scale the run exactly as in the admission suite (CI's
``scanner-differential`` job runs this module at 200 documents per DTD).
"""

from __future__ import annotations

import gc
import os
import random
import tracemalloc
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
from repro.service.dispatch import check_text
from repro.service.registry import DEFAULT_REGISTRY
from repro.xmlmodel import fastlex
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


# -- the expat fast path -----------------------------------------------------


@pytest.fixture
def reference_calls(monkeypatch) -> list[str]:
    """Every source the scanner's reference loop reads during the test."""
    calls: list[str] = []
    loop = fastlex._reference_loop

    def counted(source: str):
        calls.append(source)
        return loop(source)

    monkeypatch.setattr(fastlex, "_reference_loop", counted)
    return calls


@pytest.mark.parametrize("shape", sorted(corpusgen.SHAPES))
@pytest.mark.parametrize("name", POOL_NAMES)
def test_every_corpus_shape_takes_the_fast_path(name, shape, reference_calls):
    """Expat alone reads generated documents of every shape, with the
    reference's events: at 25% mutated, the manuscript corpus is the
    one servebench's bulk workload sends."""
    corpus = corpusgen.mixed_corpus(
        catalog.load(name), DOCS_PER_DTD, seed=SEED, corrupt_fraction=0.25, shape=shape
    )
    for document in corpusgen.corpus_documents(corpus):
        text = to_xml(document)
        assert _outcome(_scanned(text)) == _outcome(_reference_events(text)), text[:120]
        assert not reference_calls, text[:120]


#: One document per construct that keeps a text off the fast path.
OFF_THE_FAST_PATH = {
    "entity": "<r>a &amp; b</r>",
    "character-reference": "<r a='&#x41;'>x</r>",
    "cdata": "<r>pre<![CDATA[<raw>]]>post</r>",
    "doctype": "<!DOCTYPE r [<!ELEMENT r ANY>]>\n<r>x</r>",
    "non-ascii-text": "<r>café</r>",
    "non-ascii-name": "<ré/>",
    "carriage-return": "<r>\r\n<a/>\r</r>",
    "lone-surrogate": "<r>\ud800</r>",
    "comment-opening-gt": "<r>a<!-->b-->c</r>",
    "comment-opening-dash-gt": "<r>a<!--->b-->c</r>",
}


@pytest.mark.parametrize(
    "source", OFF_THE_FAST_PATH.values(), ids=OFF_THE_FAST_PATH.keys()
)
def test_hard_constructs_take_the_reference_loop(source, reference_calls):
    scanned = _outcome(_scanned(source))
    assert reference_calls == [source]
    assert scanned == _outcome(_reference_events(source))


#: Fast-path documents with what a chunk boundary can split: text runs
#: longer than a chunk, empty tags, attributes, and comments and PIs
#: inside text.
CHUNKED = (
    "<?xml version='1.0'?>\n<r>one<a x='1' y=\"two\">two</a><b/>three"
    "<!-- c -->four<?pi d?>five</r>\n<!-- e -->",
    "<r>" + "long text " * 40 + "<a/>" + "tail" * 30 + "</r>",
    "<r>\n  <a>one</a>\n  <a>two</a>\n</r>",
    "<r><a/><a></a><a x='y'/><a\n/></r>",
)


@pytest.mark.parametrize("chunk", (1, 2, 3, 5, 7, 64))
def test_chunk_boundaries_do_not_change_events(chunk, monkeypatch, reference_calls):
    monkeypatch.setattr(fastlex, "_CHUNK", chunk)
    for text in CHUNKED + tuple(_corpus_texts("manuscript")[:6]):
        assert _outcome(_scanned(text)) == _outcome(_reference_events(text)), text[:120]
    assert not reference_calls
    for text in HANDCRAFTED + MALFORMED + NOT_DOCUMENTS:
        assert _outcome(_scanned(text)) == _outcome(_reference_events(text)), text


@pytest.mark.parametrize("size", (1, 3, 8))
def test_text_runs_longer_than_the_text_buffer_keep_their_offsets(size):
    """Past a full text buffer expat hands a run over in pieces, and a
    piece longer than the buffer at once, at its own start: the reader
    places each run where it starts and joins its pieces."""
    for text in CHUNKED + tuple(_corpus_texts("manuscript")[:6]):
        parse, events, split = fastlex._expat_reader(text, size)
        parse(text, True)
        fastlex._join_runs(events, split, len(events))
        assert events == list(fastlex._reference_loop(text)), text[:120]


def _late_defects(text: str, root: str) -> dict[str, str]:
    """*text* with one defect near its end, past its first chunks."""
    end_tag = f"</{root}>"
    assert text.endswith(end_tag)
    body = text[: -len(end_tag)]
    return {
        "unclosed": body,
        "mismatched": body + "</zz>" + end_tag,
        "second-root": text + f"<{root}/>",
        "text-after-root": text + "stray",
        "bad-tag": body + "<a b='1/>" + end_tag,
        "stray-lt": body + "a < b" + end_tag,
    }


def test_an_expat_error_after_yielded_events_is_the_reference_error(
    monkeypatch, reference_calls
):
    """Expat rejects a document after events went out: the reference loop
    takes over past them, and every text surface raises its error."""
    monkeypatch.setattr(fastlex, "_CHUNK", 64)
    dtd = catalog.manuscript()
    schema = DEFAULT_REGISTRY.get(dtd)
    checkers = [PVChecker(dtd, algorithm=algorithm) for algorithm in ALGORITHMS]
    surfaces = [
        parse_xml,
        partial(stream_check_document, schema),
        partial(stream_coarse_check, schema.coarse),
    ] + [checker.check_text for checker in checkers]
    text = max(_corpus_texts("manuscript"), key=len)
    assert len(text) > 4 * 64
    for defect, bad in _late_defects(text, dtd.root).items():
        reference_calls.clear()
        from_expat = 0
        with pytest.raises(ReproError) as raised:
            for _event in scan_events(bad):
                from_expat += not reference_calls
        assert from_expat > 0 and reference_calls == [bad], defect
        expected = _parsed(corpusgen.reference_parse, bad)[1]
        assert expected is not None and _error(raised.value) == expected, defect
        assert _outcome(_scanned(bad)) == _outcome(_reference_events(bad)), defect
        for check in surfaces:
            assert _raised(check, bad) == expected, (defect, check)


def test_an_expat_reject_the_reference_accepts_keeps_its_events(
    monkeypatch, reference_calls
):
    """Where expat is stricter than the reference (an attribute twice, no
    space between attributes, a control character, ``]]>`` in text), the
    reference loop's events past those already yielded complete the
    stream."""
    monkeypatch.setattr(fastlex, "_CHUNK", 64)
    text = max(_corpus_texts("manuscript"), key=len)
    body, end_tag = text[: text.rindex("</")], text[text.rindex("</") :]
    for tail in ("<a x='1' x='2'/>", "<a x='1'y='2'/>", "a\x01b", "a]]>b"):
        bad = body + tail + end_tag
        reference_calls.clear()
        events, from_expat = [], 0
        for event in scan_events(bad):
            events.append(event)
            from_expat += not reference_calls
        assert from_expat > 0 and reference_calls == [bad], tail
        assert _outcome(_scanned(bad)) == _outcome(_reference_events(bad)), tail
        assert events == list(fastlex._reference_loop(bad)), tail


def test_a_100000_deep_document_takes_the_fast_path(reference_calls):
    depth = 100_000
    text = "<x>" * depth + "</x>" * depth
    events = list(scan_events(text))
    assert not reference_calls
    assert events == [(EV_START, "x", 3 * i) for i in range(depth)] + [
        (EV_END, "x", 3 * depth + 4 * i) for i in range(depth)
    ]


def test_the_fast_path_streams(reference_calls):
    """Memory is bounded by a chunk's events, not by the document's: a
    scan that collected all 300,002 events first would hold ~25 MB."""
    text = "<r>" + "<x>word</x>" * 100_000 + "</r>"
    tracemalloc.start()
    try:
        count = sum(1 for _event in scan_events(text))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 300_002 and not reference_calls
    assert peak < 2_000_000


def test_the_fast_path_leaves_no_cycles(monkeypatch):
    """The parser and its handlers refer to each other: each scan must
    let them go, or every document's events wait for the cyclic
    collector."""
    monkeypatch.setattr(fastlex, "_CHUNK", 64)
    text = max(_corpus_texts("manuscript"), key=len)
    gc.collect()
    gc.disable()
    try:
        for source in (text, text[:-1], text[:60], text[:60] + "</x>"):
            _outcome(scan_events(source))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", POOL_NAMES)
def test_fast_path_mutants_meet_the_reference(name, reference_calls):
    """One-edit mutants over the fast path's alphabet: expat's accept or
    reject decision must give the reference's events and error."""
    rng = random.Random(f"{SEED}-fast-{name}")
    mutants = [
        corpusgen.mutate_fast_path(text, rng)
        for text in _corpus_texts(name)
        for _ in range(MUTANTS_PER_TEXT)
    ]
    decided = {"accepted": 0, "rejected": 0, "off the path": 0}
    for mutant in mutants:
        reference_calls.clear()
        scanned = _outcome(_scanned(mutant))
        assert scanned == _outcome(_reference_events(mutant)), mutant[:120]
        if not fastlex._expat_reads_alike(mutant):
            decided["off the path"] += 1
        else:
            decided["rejected" if reference_calls else "accepted"] += 1
    assert decided["accepted"] > 0 and decided["rejected"] > 0, decided
    assert decided["off the path"] <= len(mutants) // 10, decided


class _CountedFind(str):
    """A source that sums the characters each ``find`` examines."""

    def find(self, sub, start=0, end=None):
        found = super().find(sub, start, end)
        stop = len(self) if end is None else min(end, len(self))
        self.examined = getattr(self, "examined", 0) + (
            (found + len(sub) if found >= 0 else stop) - start
        )
        return found


@pytest.mark.parametrize("runs", (500, 4000))
def test_the_reference_loop_is_linear_in_text_runs(runs):
    """One ``&amp;`` sends the document to the reference loop, whose text
    searches must stop at the run's end: each searching the rest of the
    source is quadratic in runs (20 s for 300,000 runs)."""
    source = _CountedFind("<r>&amp;" + "<x>word</x>" * runs + "</r>")
    assert len(list(scan_events(source))) == 3 * runs + 3
    assert source.examined <= 2 * len(source)


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
    text = to_xml(
        corpusgen.valid_documents(catalog.manuscript(), 1, seed=SEED)[0]
    )
    first = check_text(schema, text, cache=cache)
    assert first.cached is False
    replay = check_text(schema, text, cache=cache)
    assert replay.cached is True
    assert replay.verdict is first.verdict
    assert cache.stats["hits"] == 1
    # No cache means no replay.
    checked = check_text(schema, text)
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


def test_a_lone_surrogate_gets_one_answer_with_the_cache_on_and_off(tmp_path):
    """A JSON ``\\ud800`` escape decodes to a lone surrogate, which the
    cache's digest must key like any other text."""
    from repro.dtd.parser import parse_dtd
    from repro.server.client import ValidationClient
    from repro.server.server import ServerThread

    dtd_text = "<!ELEMENT r (#PCDATA)>"
    doc = "<r>\ud800</r>"
    schema = DEFAULT_REGISTRY.get(parse_dtd(dtd_text, root="r"))
    for cache in (None, 16):
        batch = BatchChecker(schema, algorithm="kernel", verdict_cache=cache)
        result = batch.check_texts([doc, doc])
        assert [(item.ok, item.error) for item in result.items] == [(True, None)] * 2
    served = []
    for cache in (0, 8):
        with ServerThread(
            unix_path=str(tmp_path / f"pv{cache}.sock"), verdict_cache=cache
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                single = [client.check(dtd_text, doc) for _ in range(2)]
                replies, _trailer = client.check_batch(dtd_text, [doc, doc])
        served.append([reply["potentially_valid"] for reply in single + replies])
    assert served == [[True] * 4, [True] * 4]
