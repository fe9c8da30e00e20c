"""Tests for DTD lexing, parsing, and serialization."""

from __future__ import annotations

import pytest

from repro.core.pv import PVChecker
from repro.dtd.analysis import DTDClass, analyze
from repro.dtd.ast import Choice, Name, Opt, Seq, Star, to_text
from repro.dtd.model import (
    AnyContent,
    ChildrenContent,
    EmptyContent,
    MixedContent,
)
from repro.dtd.parser import parse_content_spec, parse_dtd
from repro.dtd.serialize import decl_to_text, dtd_to_text
from repro.errors import (
    DTDSemanticError,
    DTDSyntaxError,
    UnknownElementError,
)
from repro.service.compiled import (
    compile_schema,
    decode_artifact,
    encode_artifact,
    schema_fingerprint,
)

FIGURE1 = """
<!ELEMENT r (a+)>
<!ELEMENT a (b?, (c | f), d)>
<!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA | e)*>
<!ELEMENT e EMPTY>
<!ELEMENT f (c, e)>
"""


class TestParsing:
    def test_figure1_parses(self):
        dtd = parse_dtd(FIGURE1)
        assert dtd.element_names() == ("r", "a", "b", "c", "d", "e", "f")
        assert dtd.root == "r"

    def test_root_defaults_to_first_declaration(self):
        dtd = parse_dtd("<!ELEMENT x (y?)><!ELEMENT y EMPTY>")
        assert dtd.root == "x"

    def test_explicit_root(self):
        dtd = parse_dtd("<!ELEMENT x (y?)><!ELEMENT y EMPTY>", root="y")
        assert dtd.root == "y"

    def test_unknown_root_rejected(self):
        with pytest.raises(UnknownElementError):
            parse_dtd("<!ELEMENT x EMPTY>", root="zzz")

    def test_empty_and_any(self):
        dtd = parse_dtd("<!ELEMENT x ANY><!ELEMENT y EMPTY>")
        assert isinstance(dtd["x"].content, AnyContent)
        assert isinstance(dtd["y"].content, EmptyContent)

    def test_mixed_with_names(self):
        dtd = parse_dtd("<!ELEMENT x (#PCDATA | y | z)*><!ELEMENT y EMPTY><!ELEMENT z EMPTY>")
        content = dtd["x"].content
        assert isinstance(content, MixedContent)
        assert content.names == ("y", "z")

    def test_bare_pcdata(self):
        dtd = parse_dtd("<!ELEMENT x (#PCDATA)>")
        content = dtd["x"].content
        assert isinstance(content, MixedContent)
        assert content.names == ()

    def test_pcdata_star_allowed(self):
        dtd = parse_dtd("<!ELEMENT x (#PCDATA)*>")
        assert isinstance(dtd["x"].content, MixedContent)

    def test_mixed_without_star_rejected(self):
        with pytest.raises(DTDSyntaxError):
            parse_dtd("<!ELEMENT x (#PCDATA | y)><!ELEMENT y EMPTY>")

    def test_duplicate_mixed_name_rejected(self):
        with pytest.raises(DTDSemanticError):
            parse_dtd("<!ELEMENT x (#PCDATA | y | y)*><!ELEMENT y EMPTY>")

    def test_children_structure(self):
        spec = parse_content_spec("(b?, (c | f), d)")
        assert isinstance(spec, ChildrenContent)
        assert spec.model == Seq(
            (Opt(Name("b")), Choice((Name("c"), Name("f"))), Name("d"))
        )

    def test_occurrence_operators(self):
        spec = parse_content_spec("(a*, b+, c?)")
        assert to_text(spec.model) == "(a*, b+, c?)"

    def test_nested_groups(self):
        spec = parse_content_spec("((a | b), (c, d)*)")
        assert to_text(spec.model) == "((a | b), (c, d)*)"

    def test_attlist_and_comments_skipped(self):
        source = """
        <!-- a comment -->
        <!ELEMENT x (y)>
        <!ATTLIST x id CDATA #IMPLIED>
        <!ELEMENT y EMPTY>
        <!ENTITY % stuff "ignored">
        """
        dtd = parse_dtd(source)
        assert dtd.element_names() == ("x", "y")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DTDSemanticError):
            parse_dtd("<!ELEMENT x EMPTY><!ELEMENT x EMPTY>")

    def test_undeclared_reference_rejected(self):
        with pytest.raises(DTDSemanticError):
            parse_dtd("<!ELEMENT x (ghost)>")

    def test_empty_dtd_rejected(self):
        with pytest.raises(DTDSemanticError):
            parse_dtd("   <!-- nothing -->   ")

    @pytest.mark.parametrize(
        "source",
        [
            "<!ELEMENT x (y",            # unterminated group
            "<!ELEMENT x (y)",           # missing '>'
            "<!ELEMENT (y)>",            # missing name
            "<!ELEMENT x (y,|z)>",       # bad separator
            "<!ELEMENT x (y | z, w)>",   # mixed separators in one group
            "<!ELEMENT x y>",            # bare name content
        ],
    )
    def test_syntax_errors(self, source):
        with pytest.raises(DTDSyntaxError):
            parse_dtd(source + "<!ELEMENT y EMPTY><!ELEMENT z EMPTY><!ELEMENT w EMPTY>")

    def test_pcdata_in_children_rejected(self):
        from repro.dtd.ast import PCData

        ChildrenContent(Seq((Name("a"), Star(Choice((Name("b"),))))))  # fine
        with pytest.raises(DTDSemanticError):
            ChildrenContent(Seq((PCData(),)))


class TestSerialization:
    def test_figure1_round_trip(self):
        dtd = parse_dtd(FIGURE1)
        text = dtd_to_text(dtd)
        again = parse_dtd(text)
        assert again == dtd
        assert dtd_to_text(again) == text

    def test_decl_rendering(self):
        dtd = parse_dtd(FIGURE1)
        assert decl_to_text(dtd["e"]) == "<!ELEMENT e EMPTY>"
        assert decl_to_text(dtd["d"]) == "<!ELEMENT d (#PCDATA | e)*>"
        assert decl_to_text(dtd["c"]) == "<!ELEMENT c (#PCDATA)>"
        assert decl_to_text(dtd["a"]) == "<!ELEMENT a (b?, (c | f), d)>"

    def test_any_round_trip(self):
        dtd = parse_dtd("<!ELEMENT x ANY><!ELEMENT y (#PCDATA)>")
        assert parse_dtd(dtd_to_text(dtd)) == dtd


class TestSizeMeasures:
    def test_element_count_m(self):
        assert parse_dtd(FIGURE1).element_count == 7

    def test_occurrence_count_k_figure1(self):
        # r:(a+) -> 1; a:(b?,(c|f),d) -> 4; b:(d|f) -> 2; c:#PCDATA -> 1;
        # d:(#PCDATA|e)* -> 2; e:EMPTY -> 0; f:(c,e) -> 2  => k = 12
        assert parse_dtd(FIGURE1).occurrence_count == 12

    def test_k_at_least_m_minus_empties(self):
        dtd = parse_dtd(FIGURE1)
        assert dtd.occurrence_count >= dtd.element_count - 1


#: Groups nested this deep: 20-40 KB of DTD text, ten times the default
#: recursion limit of the interpreter.
DEEP = 10_000

#: One content model per shape, with a document it must accept: a
#: right-leaning sequence chain ``(a, (a, ...))`` and a starred tower
#: of one-item groups ``((...(a)...))*``.
DEEP_MODELS = {
    "seq": ("(a," * DEEP + "a" + ")" * DEEP, "<r><a/></r>"),
    "starred": ("(" * DEEP + "a" + ")" * DEEP + "*", "<r><a/><a/></r>"),
}


def _deep_dtd_text(model: str, spaced: bool = False) -> str:
    if spaced:  # the same model written differently
        model = model.replace("(", "( ").replace(",", " ,\n ")
    return f"<!ELEMENT r {model}>\n<!ELEMENT a EMPTY>"


class TestDeepContentModels:
    """Every fold over a content model is one iterative walk, so a client
    DTD nested far past the recursion limit parses, fingerprints,
    analyses, compiles, compares, hashes, pickles and checks."""

    @pytest.mark.parametrize("shape", sorted(DEEP_MODELS))
    def test_groups_nested_10000_deep_compile_and_check(self, shape):
        model, accepted = DEEP_MODELS[shape]
        dtd = parse_dtd(_deep_dtd_text(model))
        fingerprint = schema_fingerprint(dtd)
        analysis = analyze(dtd)
        assert analysis.productive == {"r", "a"}
        assert analysis.dtd_class is DTDClass.NON_RECURSIVE
        compiled = compile_schema(dtd, fingerprint)
        for algorithm in ("kernel", "machine", "earley", "figure5"):
            checker = PVChecker(dtd, algorithm=algorithm, compiled=compiled)
            assert checker.check_text(accepted).potentially_valid, algorithm
            assert not checker.check_text("<r><r/></r>").potentially_valid, algorithm

    @pytest.mark.parametrize("shape", sorted(DEEP_MODELS))
    def test_equal_texts_compare_hash_and_round_trip(self, shape):
        model, _ = DEEP_MODELS[shape]
        first = parse_dtd(_deep_dtd_text(model))
        second = parse_dtd(_deep_dtd_text(model, spaced=True))
        assert first == second
        assert hash(first) == hash(second)
        assert dtd_to_text(first) == dtd_to_text(second)
        compiled = compile_schema(second)
        assert compiled.fingerprint == schema_fingerprint(first)
        revived = decode_artifact(encode_artifact(compiled), compiled.fingerprint)
        assert revived is not None
        assert revived.dtd == first and hash(revived.dtd) == hash(first)
