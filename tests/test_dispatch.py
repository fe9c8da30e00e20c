"""Tests for the one text→verdict function, ``dispatch.check_text``."""

from __future__ import annotations

import sys
import threading

import pytest

import repro.service.registry as registry_module
import repro.xmlmodel.parser as xml_parser
from repro.core.pv import PVChecker
from repro.dtd.parser import parse_dtd
from repro.service.cache import VerdictCache
from repro.service.compiled import compile_schema
from repro.service.dispatch import check_text
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

#: Not potentially valid under FIGURE1: ``<c>`` holds only character data.
NOT_PV = "<r><a><c><e/></c></a></r>"

#: Example 5's T1: PV-strong recursive (a may require unboundedly deep wraps).
STRONG = "<!ELEMENT a (a | b*)><!ELEMENT b EMPTY>"


@pytest.fixture
def figure1():
    return compile_schema(parse_dtd(FIGURE1))


class TestPolicyRouting:
    """``auto`` runs the exact kernel whatever the document's shape."""

    def test_gap_heavy_goes_exact(self, figure1):
        checked = check_text(figure1, "<r><a>plenty of text</a></r>")
        assert checked.algorithm == "kernel"

    def test_large_document_goes_exact(self, figure1):
        checked = check_text(figure1, "<r><a><e></e></a><a><e></e></a></r>")
        assert checked.algorithm == "kernel"

    def test_deep_document_goes_exact(self, figure1):
        checked = check_text(figure1, "<r><a><b><f><c></c></f></b></a></r>")
        assert checked.algorithm == "kernel"

    def test_pv_strong_always_exact(self):
        checked = check_text(compile_schema(parse_dtd(STRONG)), "<a></a>")
        assert checked.algorithm == "kernel"
        assert not checked.verdict.depth_limited

    def test_exact_backend_is_swappable_to_the_machine(self, figure1):
        """The object-graph reference stays selectable per request."""
        checked = check_text(figure1, "<r><a>plenty of text</a></r>", "machine")
        assert checked.algorithm == "machine"
        assert checked.verdict.potentially_valid


class TestDispatchedChecking:
    def test_verdicts_match_direct_checker(self):
        dtd = parse_dtd(FIGURE1)
        schema = compile_schema(dtd)
        direct = PVChecker(dtd)
        over_tree = schema.checker("kernel")
        generator = DocumentGenerator(dtd, seed=13)
        for document in generator.documents(6, target_nodes=20):
            checked = check_text(schema, to_xml(document))
            assert checked.algorithm == "kernel"
            assert bool(checked.verdict) == direct.is_potentially_valid(document)
            assert checked.verdict == over_tree.check_document(document)

    def test_checkers_share_compiled_artifact(self, figure1, monkeypatch):
        """Every backend checks over the artifact it is handed: no check
        compiles, and no registry is consulted."""

        def refuse(*args, **kwargs):
            raise AssertionError("check_text compiled a schema")

        monkeypatch.setattr(registry_module, "compile_schema", refuse)
        for algorithm in ("auto", "kernel", "machine", "figure5", "earley"):
            checked = check_text(figure1, "<r><a>text</a></r>", algorithm)
            assert checked.error is None, (algorithm, checked.error)
            assert checked.verdict.potentially_valid, algorithm
        assert figure1.checker("earley").compiled is figure1


class TestTextPipeline:
    """``check_text``: one cache key, errors as answers, no trees."""

    def test_auto_and_kernel_requests_share_cache_entries(self, figure1):
        cache = VerdictCache(8)
        first = check_text(figure1, "<r><a>x</a></r>", "kernel", cache)
        replay = check_text(figure1, "<r><a>x</a></r>", cache=cache)
        assert (first.cached, replay.cached) == (False, True)
        assert replay.algorithm == "kernel"
        assert replay.verdict is first.verdict
        assert replay.seconds == 0.0
        assert len(cache) == 1

    def test_explicit_backends_never_alias(self, figure1):
        cache = VerdictCache(8)
        check_text(figure1, "<r><a>x</a></r>", "kernel", cache)
        other = check_text(figure1, "<r><a>x</a></r>", "machine", cache)
        assert not other.cached
        assert len(cache) == 2

    def test_malformed_documents_are_answered_and_cached(self, figure1):
        cache = VerdictCache(8)
        first = check_text(figure1, "<r><a></r>", cache=cache)
        assert first.verdict is None and "does not match" in first.error
        replay = check_text(figure1, "<r><a></r>", cache=cache)
        assert replay.cached and replay.error == first.error

    def test_concurrent_checks_lose_no_decision_or_cache_count(self, figure1):
        """Server threads share one artifact and one verdict cache: every
        call is answered, on the kernel, and counted once."""
        cache = VerdictCache(4)
        texts = [f"<r><a>{n}</a></r>" for n in range(6)]
        threads, calls = 8, 40
        answered: list[str] = []

        def hammer() -> None:
            for n in range(calls):
                checked = check_text(figure1, texts[n % len(texts)], cache=cache)
                answered.append(checked.algorithm)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads * calls
        assert answered == ["kernel"] * total
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == total

    def test_no_backend_parses_a_tree(self, figure1, monkeypatch):
        """Every algorithm checks off the event stream."""
        one, bad = "<r><a>one</a></r>", NOT_PV
        kernel_checker = PVChecker(parse_dtd(FIGURE1), algorithm="kernel")
        expected = {
            text: kernel_checker.check_document(parse_xml(text))
            for text in (one, bad)
        }

        def refuse(text):
            raise AssertionError(f"parse_xml called on {text!r}")

        monkeypatch.setattr(xml_parser, "parse_xml", refuse)
        assert check_text(figure1, one).verdict == expected[one]
        for algorithm in ("kernel", "machine", "figure5", "earley"):
            checked = check_text(figure1, bad, algorithm)
            assert checked.error is None, (algorithm, checked.error)
            assert checked.verdict == expected[bad], algorithm
