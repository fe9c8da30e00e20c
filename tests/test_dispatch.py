"""Tests for the one text→verdict pipeline and its decision log."""

from __future__ import annotations

import sys
import threading

import pytest

import repro.xmlmodel.parser as xml_parser
from repro.core.pv import PVChecker
from repro.dtd.parser import parse_dtd
from repro.service.cache import VerdictCache
from repro.service.dispatch import BackendDispatcher
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


class TestPolicyRouting:
    """``auto`` runs the exact kernel whatever the document's shape."""

    def test_gap_heavy_goes_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1))
        checked = dispatcher.check_text("<r><a>plenty of text</a></r>")
        assert checked.algorithm == "kernel"
        assert checked.reason == "auto resolves to the kernel"

    def test_large_document_goes_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1))
        checked = dispatcher.check_text("<r><a><e></e></a><a><e></e></a></r>")
        assert checked.algorithm == "kernel"

    def test_deep_document_goes_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1))
        checked = dispatcher.check_text("<r><a><b><f><c></c></f></b></a></r>")
        assert checked.algorithm == "kernel"

    def test_pv_strong_always_exact(self):
        dispatcher = BackendDispatcher(parse_dtd(STRONG))
        checked = dispatcher.check_text("<a></a>")
        assert checked.algorithm == "kernel"
        assert not checked.verdict.depth_limited

    def test_exact_backend_is_swappable_to_the_machine(self):
        """The object-graph reference stays selectable per request."""
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1))
        checked = dispatcher.check_text("<r><a>plenty of text</a></r>", "machine")
        assert checked.algorithm == "machine"
        assert checked.reason is None
        assert dispatcher.decisions == ()  # only auto requests are decided

    def test_audit_slice_goes_earley(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1), audit_every=3)
        algorithms = [dispatcher.choose().algorithm for _ in range(6)]
        assert algorithms == [
            "kernel", "kernel", "earley", "kernel", "kernel", "earley",
        ]
        assert dispatcher.counts == {"kernel": 4, "earley": 2}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BackendDispatcher(parse_dtd(FIGURE1), audit_every=-1)


class TestDispatchedChecking:
    def test_verdicts_match_direct_checker(self):
        dtd = parse_dtd(FIGURE1)
        dispatcher = BackendDispatcher(dtd)
        direct = PVChecker(dtd)
        generator = DocumentGenerator(dtd, seed=13)
        for document in generator.documents(6, target_nodes=20):
            outcome = dispatcher.check_document(document)
            assert bool(outcome) == direct.is_potentially_valid(document)
            assert outcome.decision.algorithm == "kernel"
            checked = dispatcher.check_text(to_xml(document))
            assert checked.verdict == outcome.verdict

    def test_decision_log_is_bounded(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1), log_size=2)
        for _ in range(5):
            dispatcher.choose()
        decisions = dispatcher.decisions
        assert len(decisions) == 2
        assert decisions[-1].sequence == 5  # the log keeps the newest

    def test_checkers_share_compiled_artifact(self):
        dtd = parse_dtd(FIGURE1)
        dispatcher = BackendDispatcher(dtd)
        dispatcher.check_text("<r></r>")
        dispatcher.check_text("<r><a>text</a></r>", "machine")
        checkers = list(dispatcher._checkers.values())
        assert len(checkers) == 2
        assert all(c.compiled is dispatcher.schema for c in checkers)

    def test_log_size_validated(self):
        with pytest.raises(ValueError):
            BackendDispatcher(parse_dtd(FIGURE1), log_size=-1)


class TestTextPipeline:
    """``check_text``: one cache key, errors as answers, lazy trees."""

    def test_auto_and_kernel_requests_share_cache_entries(self):
        cache = VerdictCache(8)
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1), verdict_cache=cache)
        first = dispatcher.check_text("<r><a>x</a></r>", "kernel")
        replay = dispatcher.check_text("<r><a>x</a></r>")
        assert (first.cached, replay.cached) == (False, True)
        assert replay.algorithm == "kernel"
        assert replay.verdict is first.verdict
        assert replay.seconds == 0.0
        assert len(cache) == 1

    def test_explicit_backends_never_alias(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1), verdict_cache=8)
        dispatcher.check_text("<r><a>x</a></r>", "kernel")
        other = dispatcher.check_text("<r><a>x</a></r>", "machine")
        assert not other.cached
        assert len(dispatcher.verdict_cache) == 2

    def test_malformed_documents_are_answered_and_cached(self):
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1), verdict_cache=8)
        first = dispatcher.check_text("<r><a></r>")
        assert first.verdict is None and "does not match" in first.error
        replay = dispatcher.check_text("<r><a></r>")
        assert replay.cached and replay.error == first.error

    def test_concurrent_checks_lose_no_decision_or_cache_count(self):
        """Server threads share one dispatcher and one verdict cache."""
        dispatcher = BackendDispatcher(
            parse_dtd(FIGURE1), verdict_cache=VerdictCache(4), audit_every=5
        )
        texts = [f"<r><a>{n}</a></r>" for n in range(6)]
        threads, calls = 8, 40

        def hammer() -> None:
            for n in range(calls):
                dispatcher.check_text(texts[n % len(texts)])

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
        assert sum(dispatcher.counts.values()) == total
        assert dispatcher.counts["earley"] == total // 5
        stats = dispatcher.verdict_cache.stats
        assert stats["hits"] + stats["misses"] == total

    def test_no_backend_parses_a_tree(self, monkeypatch):
        """Every algorithm checks off the event stream, audits included."""
        one, two, bad = "<r><a>one</a></r>", "<r><a>two</a></r>", NOT_PV
        kernel_checker = PVChecker(parse_dtd(FIGURE1), algorithm="kernel")
        expected = {
            text: kernel_checker.check_document(parse_xml(text))
            for text in (one, two, bad)
        }

        def refuse(text):
            raise AssertionError(f"parse_xml called on {text!r}")

        monkeypatch.setattr(xml_parser, "parse_xml", refuse)
        dispatcher = BackendDispatcher(parse_dtd(FIGURE1), audit_every=2)
        kernel = dispatcher.check_text(one)
        audited = dispatcher.check_text(two)
        assert (kernel.algorithm, audited.algorithm) == ("kernel", "earley")
        assert kernel.verdict == expected[one]
        assert audited.verdict == expected[two]
        for algorithm in ("kernel", "machine", "figure5", "earley"):
            checked = dispatcher.check_text(bad, algorithm)
            assert checked.error is None, (algorithm, checked.error)
            assert checked.verdict == expected[bad], algorithm
