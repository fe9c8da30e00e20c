"""Surface equivalence: every serving surface answers the same bytes alike.

Every surface runs the one text→verdict function
(:func:`repro.service.dispatch.check_text`), so one
seeded corpus — valid documents, single-mutation corruptions and
malformed texts over three catalog DTDs — must come back identical from
the library, the batch checker (inline and pooled), the served ``check``
and ``check-batch`` ops (cold and from the verdict cache) and the ring
client.  Replies are compared on
``potentially_valid``, the failures, ``depth_limited`` and the error.

The ring client's coarse filter is the one sanctioned difference: a
filtered document keeps its verdict, and a filtered reject names one
node the full check also blocks rather than all of them.

Every served algorithm also answers a document 100,000 elements deep
and one 1,200 siblings wide, in the library and on the served ``check``
op: the one event walk holds a frame per open element, never a Python
call per level.  Served ``validate`` answers the deep document too.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import corpusgen
from repro.core.pv import NodeFailure, PVChecker
from repro.dtd import catalog
from repro.dtd.parser import parse_dtd
from repro.dtd.serialize import dtd_to_text
from repro.errors import ReproError
from repro.server.client import ValidationClient
from repro.server.ring import ShardedClient
from repro.server.server import ServerThread
from repro.service.batch import BatchChecker, check_batch
from repro.service.compiled import compile_schema
from repro.service.dispatch import AUTO_BACKEND, check_text
from repro.xmlmodel.delta import SIGMA
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml

DTD_NAMES = ("paper-figure1", "example5-T1", "manuscript")
SEED = 13
DOCS_PER_DTD = 12

#: Every algorithm a ``check`` request may name.
SERVED_ALGORITHMS = ("auto", "kernel", "machine", "earley", "figure5")

DEEP = 100_000
DEEP_DTD = "<!ELEMENT r (x*)>\n<!ELEMENT x (x*)>"
#: Siblings of a wide document; Earley is quadratic in them (~1 s here).
WIDE = 1_200
WIDE_DTD = "<!ELEMENT r (x*)>\n<!ELEMENT x (#PCDATA)>"


def _malformed(text: str) -> list[str]:
    """Three ill-formed variants of a well-formed document."""
    return [text[:-1], text + text, text.replace("</", "<", 1)]


@lru_cache(maxsize=None)
def corpus() -> tuple[tuple[str, str, str | None, tuple[str, ...]], ...]:
    """``(name, dtd text, root, texts)`` per DTD."""
    out = []
    for name in DTD_NAMES:
        dtd = catalog.load(name)
        texts = [
            to_xml(document)
            for document, _provenance in corpusgen.mixed_corpus(
                dtd, DOCS_PER_DTD, seed=SEED, corrupt_fraction=0.5
            )
        ]
        texts += _malformed(texts[0])
        out.append((name, dtd_to_text(dtd), dtd.root, tuple(texts)))
    return tuple(out)


def _from_verdict(verdict) -> tuple:
    failures = tuple((f.path, f.element, f.reason) for f in verdict.failures)
    return (verdict.potentially_valid, failures, verdict.depth_limited, None)


def _from_error(message: str) -> tuple:
    return (None, (), None, ("bad-document", message))


def _from_reply(reply: dict) -> tuple:
    if not reply["ok"]:
        error = reply["error"]
        return (None, (), None, (error["code"], error["message"]))
    failures = tuple(
        (f["path"], f["element"], f["reason"]) for f in reply["failures"]
    )
    return (reply["potentially_valid"], failures, reply["depth_limited"], None)


@lru_cache(maxsize=None)
def expected() -> dict[str, list[tuple]]:
    """The library's answers: ``PVChecker(kernel).check_text``."""
    out = {}
    for name, _text, _root, texts in corpus():
        checker = PVChecker(catalog.load(name), algorithm="kernel")
        answers = []
        for text in texts:
            try:
                answers.append(_from_verdict(checker.check_text(text)))
            except ReproError as error:
                answers.append(_from_error(str(error)))
        out[name] = answers
    return out


def test_corpus_covers_every_kind_of_answer():
    answers = [answer for group in expected().values() for answer in group]
    assert any(answer[0] is True for answer in answers)
    assert any(answer[0] is False for answer in answers)
    assert sum(answer[3] is not None for answer in answers) == 3 * len(DTD_NAMES)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_checker_matches_the_library(workers):
    for name, _text, _root, texts in corpus():
        result = BatchChecker(
            catalog.load(name), algorithm="kernel", workers=workers
        ).check_texts(list(texts))
        answers = [
            _from_error(item.error) if item.error is not None
            else _from_verdict(item.verdict)
            for item in result.items
        ]
        assert answers == expected()[name], name


def test_served_check_and_batch_match_the_library(tmp_path):
    with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:
            for name, dtd_text, root, texts in corpus():
                checks = [
                    _from_reply(_reply(client, dtd_text, text, root))
                    for text in texts
                ]
                replies, trailer = client.check_batch(dtd_text, list(texts), root=root)
                assert checks == expected()[name], name
                assert [_from_reply(r) for r in replies] == expected()[name], name
                assert trailer["errors"] == 3


def test_verdict_cache_replays_every_reply(tmp_path):
    with ServerThread(
        unix_path=str(tmp_path / "pv.sock"), verdict_cache=4096
    ) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:
            for name, dtd_text, root, texts in corpus():
                replies, _trailer = client.check_batch(
                    dtd_text, list(texts), root=root
                )
                assert [_from_reply(r) for r in replies] == expected()[name]
                # kernel and auto share entries: every reply is a hit.
                replays = [
                    _reply(client, dtd_text, text, root, algorithm="kernel")
                    for text in texts
                ]
                assert all(reply.get("cached") for reply in replays
                           if reply["ok"]), name
                assert [_from_reply(r) for r in replays] == expected()[name]
            stats = client.stats()["server"]["verdict_cache"]
            distinct = sum(len(set(texts)) for *_, texts in corpus())
            total = sum(len(texts) for *_, texts in corpus())
            assert stats["misses"] == distinct
            assert stats["hits"] == 2 * total - distinct


def test_ring_client_matches_the_library(tmp_path):
    handles = [
        ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock")).start()
        for i in range(2)
    ]
    try:
        paths = [handle.unix_path for handle in handles]
        with ShardedClient(paths) as ring:
            for name, dtd_text, root, texts in corpus():
                replies, _trailer = ring.check_batch(dtd_text, list(texts), root=root)
                assert [_from_reply(r) for r in replies] == expected()[name]
        filtered = 0
        with ShardedClient(paths, coarse_filter=True) as ring:
            for name, dtd_text, root, texts in corpus():
                # The shards hold the artifact: the filter is live at once.
                replies, trailer = ring.check_batch(dtd_text, list(texts), root=root)
                filtered += trailer.get("filtered", 0)
                for reply, full in zip(replies, expected()[name]):
                    if not reply.get("filtered"):
                        assert _from_reply(reply) == full
                        continue
                    assert reply["potentially_valid"] == full[0]
                    blocked = {(path, element) for path, element, _ in full[1]}
                    for failure in reply["failures"]:
                        assert (failure["path"], failure["element"]) in blocked
        assert filtered > 0
    finally:
        for handle in handles:
            handle.stop()


def _reply(client, dtd_text, text, root, algorithm=None) -> dict:
    """A ``check`` reply, with an error reply returned rather than raised."""
    payload = {"op": "check", "dtd": dtd_text, "doc": text, "root": root}
    if algorithm is not None:
        payload["algorithm"] = algorithm
    client.send(payload)
    return client.recv()


def _nested(depth: int, core: str = "") -> str:
    return "<r>" + "<x>" * depth + core + "</x>" * depth + "</r>"


def _library_answers(dtd_text: str, text: str) -> list[tuple[str, str, tuple]]:
    """``(algorithm, route, answer)`` for every served algorithm, through
    ``check_text`` and ``check_document(parse_xml(...))``."""
    schema = compile_schema(parse_dtd(dtd_text))
    out = []
    for algorithm in SERVED_ALGORITHMS:
        checked = check_text(schema, text, algorithm)
        answer = (
            _from_error(checked.error) if checked.error is not None
            else _from_verdict(checked.verdict)
        )
        out.append((algorithm, "check_text", answer))
    tree = parse_xml(text)
    for algorithm in SERVED_ALGORITHMS:
        backend = AUTO_BACKEND if algorithm == "auto" else algorithm
        verdict = schema.checker(backend).check_document(tree)
        out.append((algorithm, "check_document", _from_verdict(verdict)))
    return out


@pytest.mark.parametrize(
    "dtd_text, text",
    [(DEEP_DTD, _nested(DEEP)), (WIDE_DTD, "<r>" + "<x>t</x>" * WIDE + "</r>")],
    ids=["deep", "wide"],
)
def test_every_algorithm_answers_deep_and_wide_documents(tmp_path, dtd_text, text):
    yes = (True, (), False, None)
    for algorithm, route, answer in _library_answers(dtd_text, text):
        assert answer == yes, (algorithm, route)
    with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:
            for algorithm in SERVED_ALGORITHMS:
                reply = _reply(client, dtd_text, text, "r", algorithm=algorithm)
                assert _from_reply(reply) == yes, (algorithm, reply.get("error"))
            assert client.stats()["server"]["inflight"] == 0


def test_a_deep_tree_renders_and_batch_checks():
    """``to_xml`` renders with an explicit stack: a tree ``DEEP`` levels
    deep round-trips, and ``check_batch``, which renders its documents,
    answers."""
    text = _nested(DEEP)
    tree = parse_xml(text)
    assert to_xml(tree) == text
    (item,) = check_batch(parse_dtd(DEEP_DTD), [tree]).items
    assert item.error is None
    assert item.ok


def test_a_deep_document_validates_when_served(tmp_path):
    """Served ``validate`` parses and validates off the tree walk: a
    document ``DEEP`` levels deep answers ``valid`` with no error
    counted and no verdict left in flight."""
    with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:
            client.send({"op": "validate", "dtd": DEEP_DTD, "doc": _nested(DEEP)})
            reply = client.recv()
            assert reply["ok"] is True, reply.get("error")
            assert reply["valid"] is True and reply["issues"] == []
            server = client.stats()["server"]
            assert server["errors"] == 0
            assert server["inflight"] == 0


def test_every_algorithm_reports_the_deepest_failure():
    """Character data in the deepest ``<x>`` (content ``x*``) is the one
    failure, and every algorithm names it by the same path.  Half of
    ``DEEP`` keeps the test short and stays well past the interpreter's
    recursion limit."""
    depth = DEEP // 2
    failure = NodeFailure(
        "/r" + "/x[0]" * depth,
        "x",
        (SIGMA,),
        "content cannot be completed by tag insertions alone",
    )
    schema = compile_schema(parse_dtd(DEEP_DTD))
    for algorithm in SERVED_ALGORITHMS:
        checked = check_text(schema, _nested(depth, "t"), algorithm)
        assert checked.error is None, (algorithm, checked.error)
        assert checked.verdict.failures == (failure,), algorithm

