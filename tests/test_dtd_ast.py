"""Unit tests for the content-model AST helpers."""

from __future__ import annotations

import math

import pytest

from repro.dtd.ast import (
    Choice,
    Name,
    Opt,
    PCData,
    Plus,
    Seq,
    Star,
    children,
    element_names,
    language_nullable,
    mentionable,
    mentions_pcdata,
    min_cost_word,
    node_size,
    to_text,
    walk,
)
from repro.dtd.parser import parse_content_spec


def model(text: str):
    return parse_content_spec(text).model


def can_mention(node, target, name_nullable) -> bool:
    return target in mentionable(node, name_nullable)


class TestStructure:
    def test_children_of_leaves_empty(self):
        assert children(Name("a")) == ()
        assert children(PCData()) == ()

    def test_children_of_combinators(self):
        seq = Seq((Name("a"), Name("b")))
        assert children(seq) == (Name("a"), Name("b"))
        assert children(Star(seq)) == (seq,)
        assert children(Opt(Name("a"))) == (Name("a"),)
        assert children(Plus(Name("a"))) == (Name("a"),)

    def test_seq_and_choice_require_items(self):
        with pytest.raises(ValueError):
            Seq(())
        with pytest.raises(ValueError):
            Choice(())

    def test_walk_preorder(self):
        tree = model("(a, (b | c))")
        kinds = [type(node).__name__ for node in walk(tree)]
        assert kinds == ["Seq", "Name", "Choice", "Name", "Name"]

    def test_element_names(self):
        assert element_names(model("(a, (b | c), a)")) == {"a", "b", "c"}

    def test_mentions_pcdata(self):
        assert not mentions_pcdata(model("(a, b)"))
        assert mentions_pcdata(Star(Choice((PCData(), Name("a")))))

    def test_node_size_counts_all_nodes(self):
        assert node_size(model("(a, b)")) == 3
        assert node_size(model("(a?, (b | c))")) == 6

    def test_structural_equality_and_hash(self):
        assert model("(a, b)") == model("(a, b)")
        assert model("(a, b)") != model("(a | b)")
        assert hash(model("(a, b)")) == hash(model("(a, b)"))


class TestLanguageNullable:
    def test_star_and_opt_always_nullable(self):
        assert language_nullable(model("(a)*"), lambda _name: False)
        assert language_nullable(model("(a)?"), lambda _name: False)

    def test_seq_requires_all(self):
        nullable = {"a"}.__contains__
        assert not language_nullable(model("(a, b)"), nullable)
        assert language_nullable(model("(a, a)"), nullable)

    def test_choice_requires_any(self):
        nullable = {"a"}.__contains__
        assert language_nullable(model("(a | b)"), nullable)
        assert not language_nullable(model("(b | c)"), nullable)

    def test_plus_follows_item(self):
        nullable = {"a"}.__contains__
        assert language_nullable(model("(a)+"), nullable)
        assert not language_nullable(model("(b)+"), nullable)

    def test_pcdata_counts_as_nullable(self):
        assert language_nullable(PCData(), lambda _name: False)


class TestCanMention:
    def test_direct_name(self):
        assert can_mention(model("(a, b)"), "a", lambda _n: True)

    def test_absent_name(self):
        assert not can_mention(model("(a, b)"), "z", lambda _n: True)

    def test_seq_blocks_when_sibling_not_nullable(self):
        # mention `a` in (a, b): requires b erasable
        nothing = lambda _n: False
        assert not can_mention(model("(a, b)"), "a", nothing)
        assert can_mention(model("(a, b?)"), "a", nothing)
        assert can_mention(model("(a, b*)"), "a", nothing)

    def test_choice_does_not_constrain_other_branch(self):
        nothing = lambda _n: False
        assert can_mention(model("(a | b)"), "a", nothing)

    def test_repetition_single_iteration_suffices(self):
        nothing = lambda _n: False
        assert can_mention(model("(a)*"), "a", nothing)
        assert can_mention(model("(a)+"), "a", nothing)
        assert can_mention(model("((a, b))*"), "a", {"b"}.__contains__)
        assert not can_mention(model("((a, b))*"), "a", nothing)

    def test_pcdata_target(self):
        mixed = Star(Choice((PCData(), Name("a"))))
        assert can_mention(mixed, None, lambda _n: False)
        assert not can_mention(model("(a, b)"), None, lambda _n: True)

    def test_one_fold_gives_every_mention(self):
        seq = model("(a, b?, (c | d))")
        assert mentionable(seq, lambda _n: True) == {"a", "b", "c", "d"}
        # Only the one item that cannot be erased keeps its mentions ...
        assert mentionable(seq, {"a"}.__contains__) == {"c", "d"}
        # ... and with two such items nothing is mentionable.
        assert mentionable(seq, lambda _n: False) == frozenset()


class TestMinCostWord:
    def test_sequence_adds(self):
        costs = {"a": 1.0, "b": 2.0}
        assert min_cost_word(model("(a, b)"), costs.__getitem__) == 3.0

    def test_choice_takes_min(self):
        costs = {"a": 5.0, "b": 2.0}
        assert min_cost_word(model("(a | b)"), costs.__getitem__) == 2.0

    def test_star_and_opt_free(self):
        costs = {"a": 5.0}
        assert min_cost_word(model("(a)*"), costs.__getitem__) == 0.0
        assert min_cost_word(model("(a)?"), costs.__getitem__) == 0.0

    def test_plus_pays_once(self):
        costs = {"a": 5.0}
        assert min_cost_word(model("(a)+"), costs.__getitem__) == 5.0

    def test_infinite_propagates_through_seq(self):
        costs = {"a": math.inf, "b": 1.0}
        assert math.isinf(min_cost_word(model("(a, b)"), costs.__getitem__))
        assert min_cost_word(model("(a | b)"), costs.__getitem__) == 1.0

    def test_pcdata_free(self):
        assert min_cost_word(PCData(), lambda _n: math.inf) == 0.0


class TestToText:
    @pytest.mark.parametrize(
        "text",
        [
            "(a, b)",
            "(a | b)",
            "(a?, (b | c), d)",
            "(a, (b | (c, d)))",
            "(a)*",
            "(a, b*)",
            "((a | b))+",
        ],
    )
    def test_round_trip_is_stable(self, text):
        first = to_text(model(text))
        second = to_text(model(first))
        assert first == second

    def test_figure1_example_renders(self):
        assert to_text(model("(b?, (c | f), d)")) == "(b?, (c | f), d)"
