"""Tests for Corollary 3.1 normalization and Definition 4 star-groups."""

from __future__ import annotations


from repro.dtd.ast import Name, Seq, to_text
from repro.dtd.model import PCDATA
from repro.dtd.normalize import normalize_node
from repro.dtd.parser import parse_content_spec, parse_dtd
from repro.dtd.stargroups import (
    StarGroup,
    find_star_groups,
    flatten,
    flattened_content,
)


def normalized(text: str):
    return normalize_node(parse_content_spec(text).model)


class TestNormalize:
    def test_opt_removed(self):
        assert to_text(normalized("(a?, b)")) == "(a, b)"

    def test_plus_becomes_star(self):
        assert to_text(normalized("(a+, b)")) == "(a*, b)"

    def test_nested(self):
        assert to_text(normalized("((a? | b+))*")) == "((a | b*))*"

    def test_leaves_untouched(self):
        assert to_text(normalized("(a, (b | c))")) == "(a, (b | c))"

    def test_position_count_preserved(self):
        from repro.dtd.ast import element_names

        original = parse_content_spec("(a?, (b | c)+, d*)").model
        result = normalize_node(original)
        assert element_names(result) == element_names(original)


class TestStarGroups:
    def test_paper_example(self):
        # The paper's Definition 4 example: in (a, (b* | (c, d*, e)*)) the
        # star-groups are b* and (c, d*, e)*; d* is not one.
        node = normalized("(a, (b* | (c, d*, e)*))")
        groups = [to_text(group) for group in find_star_groups(node)]
        assert groups == ["b*", "(c, d*, e)*"]

    def test_no_groups(self):
        assert find_star_groups(normalized("(a, (b | c))")) == []

    def test_whole_model_as_group(self):
        groups = find_star_groups(normalized("((a, b))*"))
        assert len(groups) == 1

    def test_plus_normalizes_into_group(self):
        groups = find_star_groups(normalized("(a+)"))
        assert [to_text(group) for group in groups] == ["a*"]


class TestFlatten:
    def test_group_members_include_nested(self):
        flat = flatten(normalized("(a, (c, d*, e)*)"))
        assert isinstance(flat, Seq)
        name, group = flat.items
        assert name == Name("a")
        assert isinstance(group, StarGroup)
        assert group.members == frozenset({"c", "d", "e"})

    def test_mixed_content_group_carries_pcdata(self):
        dtd = parse_dtd("<!ELEMENT d (#PCDATA | e)*><!ELEMENT e EMPTY>")
        flat = flattened_content(dtd, "d")
        assert isinstance(flat, StarGroup)
        assert flat.members == frozenset({PCDATA, "e"})

    def test_empty_content_flattens_to_none(self):
        dtd = parse_dtd("<!ELEMENT e EMPTY>")
        assert flattened_content(dtd, "e") is None

    def test_any_content_flattens_to_full_group(self):
        dtd = parse_dtd("<!ELEMENT x ANY><!ELEMENT y EMPTY>")
        flat = flattened_content(dtd, "x")
        assert isinstance(flat, StarGroup)
        assert flat.members == frozenset({"x", "y", PCDATA})

    def test_flatten_normalizes_on_the_way(self):
        for text in ("(a?, (b+ | c), d*)", "((a, b?)+, c?)", "(a | b*)+"):
            model = parse_content_spec(text).model
            assert flatten(model) == flatten(normalize_node(model)), text

    def test_structure_outside_groups_preserved(self):
        flat = flatten(normalized("(a?, (c | f), d)"))
        assert to_text_flat(flat) == "(a, (c | f), d)"

    def test_figure1_a_flattens_without_groups(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b?, (c | f), d)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
            "<!ELEMENT d EMPTY><!ELEMENT f EMPTY>"
        )
        flat = flattened_content(dtd, "a")
        assert to_text_flat(flat) == "(b, (c | f), d)"


def to_text_flat(node) -> str:
    """Minimal renderer for flattened nodes (groups rendered as {members})."""
    from repro.dtd.ast import Choice

    if isinstance(node, StarGroup):
        return "{" + ",".join(sorted(node.members)) + "}*"
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Seq):
        return "(" + ", ".join(to_text_flat(item) for item in node.items) + ")"
    if isinstance(node, Choice):
        return "(" + " | ".join(to_text_flat(item) for item in node.items) + ")"
    raise TypeError(node)
