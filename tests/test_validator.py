"""Tests for the standard DTD validator (D(T,r) membership)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.earley_pv import EarleyDocumentChecker
from repro.dtd import catalog
from repro.dtd.parser import parse_dtd
from repro.validity.validator import DTDValidator
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.parser import parse_xml

#: A hundred times the interpreter's default recursion limit.
DEEP = 100_000


class TestFigure1Documents:
    def test_paper_valid_extension(self, fig1, doc_w_prime):
        assert DTDValidator(fig1).is_valid(doc_w_prime)

    def test_paper_invalid_documents(self, fig1, doc_w, doc_s):
        validator = DTDValidator(fig1)
        assert not validator.is_valid(doc_w)
        assert not validator.is_valid(doc_s)

    def test_issue_paths_reported(self, fig1, doc_w):
        report = DTDValidator(fig1).validate(doc_w)
        assert not report.valid
        assert any("/r/a[0]" in issue.path for issue in report.issues)


class TestContentRules:
    def test_empty_means_empty(self):
        dtd = parse_dtd("<!ELEMENT a (e)><!ELEMENT e EMPTY>")
        validator = DTDValidator(dtd)
        assert validator.is_valid(parse_xml("<a><e></e></a>"))
        assert not validator.is_valid(parse_xml("<a><e>text</e></a>"))
        assert not validator.is_valid(parse_xml("<a><e><e></e></e></a>"))

    def test_children_content_forbids_text(self):
        dtd = parse_dtd("<!ELEMENT a (e)><!ELEMENT e EMPTY>")
        validator = DTDValidator(dtd)
        assert not validator.is_valid(parse_xml("<a>text<e></e></a>"))

    def test_children_content_allows_whitespace(self):
        dtd = parse_dtd("<!ELEMENT a (e)><!ELEMENT e EMPTY>")
        validator = DTDValidator(dtd)
        assert validator.is_valid(parse_xml("<a>\n  <e></e>\n</a>"))

    def test_mixed_allows_text_everywhere(self):
        dtd = parse_dtd("<!ELEMENT a (#PCDATA | e)*><!ELEMENT e EMPTY>")
        validator = DTDValidator(dtd)
        assert validator.is_valid(parse_xml("<a>x<e></e>y<e></e>z</a>"))
        assert validator.is_valid(parse_xml("<a></a>"))

    def test_mixed_restricts_element_names(self):
        dtd = parse_dtd(
            "<!ELEMENT a (#PCDATA | e)*><!ELEMENT e EMPTY><!ELEMENT f EMPTY>"
        )
        validator = DTDValidator(dtd)
        assert not validator.is_valid(parse_xml("<a><f></f></a>"))

    def test_any_allows_everything_declared(self):
        dtd = catalog.with_any()
        validator = DTDValidator(dtd)
        assert validator.is_valid(
            parse_xml("<doc><meta>m</meta><payload>x<widget></widget></payload></doc>")
        )

    def test_undeclared_element_invalid(self, fig1):
        assert not DTDValidator(fig1).is_valid(parse_xml("<r><ghost></ghost></r>"))

    def test_wrong_root_invalid(self, fig1):
        assert not DTDValidator(fig1).is_valid(parse_xml("<a><c>t</c><d></d></a>"))

    def test_plus_requires_one(self):
        dtd = parse_dtd("<!ELEMENT a (e+)><!ELEMENT e EMPTY>")
        validator = DTDValidator(dtd)
        assert not validator.is_valid(parse_xml("<a></a>"))
        assert validator.is_valid(parse_xml("<a><e></e></a>"))
        assert validator.is_valid(parse_xml("<a><e></e><e></e></a>"))

    def test_order_matters(self):
        dtd = parse_dtd("<!ELEMENT a (x, y)><!ELEMENT x EMPTY><!ELEMENT y EMPTY>")
        validator = DTDValidator(dtd)
        assert validator.is_valid(parse_xml("<a><x></x><y></y></a>"))
        assert not validator.is_valid(parse_xml("<a><y></y><x></x></a>"))


class TestAgainstEarley:
    """Differential: the structural validator vs G_{T,r} membership."""

    @pytest.mark.parametrize(
        "name", ["paper-figure1", "play", "dictionary", "example6-T2"]
    )
    def test_generated_docs_agree(self, name):
        dtd = catalog.load(name)
        earley = EarleyDocumentChecker(dtd)
        validator = DTDValidator(dtd)
        generator = DocumentGenerator(dtd, seed=42)
        rng = random.Random(7)
        for document in generator.documents(6, target_nodes=14):
            assert validator.is_valid(document)
            assert earley.is_valid(document)
            # Mutate: swapping adjacent different children usually breaks it;
            # whatever the outcome, the two validators must agree.
            from repro.workloads.corrupt import corrupt_swap

            mutated = corrupt_swap(document, rng)
            if mutated is not None:
                assert validator.is_valid(mutated) == earley.is_valid(mutated)

    def test_generated_documents_for_all_catalog_dtds(self):
        for name in (
            "paper-figure1", "tei-lite", "xhtml-basic", "docbook-article",
            "play", "dictionary", "manuscript", "with-any",
        ):
            dtd = catalog.load(name)
            validator = DTDValidator(dtd)
            for seed in range(3):
                document = DocumentGenerator(dtd, seed=seed).document(30)
                assert validator.is_valid(document), (name, seed)


class TestOneWalk:
    def test_issues_in_preorder_with_element_sibling_indices(self):
        dtd = parse_dtd("<!ELEMENT r (a*)><!ELEMENT a (b)><!ELEMENT b EMPTY>")
        report = DTDValidator(dtd).validate(
            parse_xml("<r>t<a><b>x</b></a><a><q><b>y</b></q></a></r>")
        )
        # The undeclared <q> is reported and its subtree left unchecked.
        assert [(issue.path, issue.element) for issue in report.issues] == [
            ("/r", "r"),
            ("/r/a[0]/b[0]", "b"),
            ("/r/a[1]", "a"),
            ("/r/a[1]/q[0]", "q"),
        ]

    def test_a_100000_deep_document(self):
        validator = DTDValidator(parse_dtd("<!ELEMENT r (x*)><!ELEMENT x (x*)>"))
        chain = "<r>" + "<x>" * DEEP + "{}" + "</x>" * DEEP + "</r>"
        assert validator.validate(parse_xml(chain.format(""))).valid
        report = validator.validate(parse_xml(chain.format("t")))
        assert [(issue.path, issue.element) for issue in report.issues] == [
            ("/r" + "/x[0]" * DEEP, "x")
        ]
