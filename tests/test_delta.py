"""Tests for the paper's delta_T and Delta_T operators (Sections 3.1, 4)."""

from __future__ import annotations

from repro.xmlmodel.delta import (
    SIGMA,
    content_symbols,
    delta_symbols,
    delta_tokens,
    end_tag,
    start_tag,
)
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.tree import XmlElement, XmlText


class TestDelta:
    def test_paper_section31_example(self):
        # delta_T(<a><b>A quick brown</b><c> fox ...</c><d> dog<e></e></d></a>)
        #   = <a><b>s</b><c>s</c><d>s<e></e></d></a>
        doc = parse_xml(
            "<a><b>A quick brown</b><c> fox jumps over a lazy</c>"
            "<d> dog<e></e></d></a>"
        )
        assert delta_symbols(doc) == [
            "<a>", "<b>", SIGMA, "</b>", "<c>", SIGMA, "</c>",
            "<d>", SIGMA, "<e>", "</e>", "</d>", "</a>",
        ]

    def test_consecutive_text_collapses(self):
        root = XmlElement("a")
        root.append(XmlText("one"))
        root.append(XmlText("two"))
        assert delta_symbols(root) == ["<a>", SIGMA, "</a>"]

    def test_empty_text_vanishes(self):
        root = XmlElement("a")
        root.append(XmlText(""))
        assert delta_symbols(root) == ["<a>", "</a>"]

    def test_text_across_element_boundary_not_collapsed(self):
        doc = parse_xml("<a>x<b></b>y</a>")
        assert delta_symbols(doc) == ["<a>", SIGMA, "<b>", "</b>", SIGMA, "</a>"]

    def test_whitespace_counts_by_default(self):
        doc = parse_xml("<a> <b></b></a>")
        assert delta_symbols(doc) == ["<a>", SIGMA, "<b>", "</b>", "</a>"]

    def test_whitespace_ignored_when_asked(self):
        doc = parse_xml("<a> <b></b></a>")
        assert delta_symbols(doc, ignore_whitespace=True) == [
            "<a>", "<b>", "</b>", "</a>",
        ]

    def test_delta_tokens_is_tuple(self):
        assert isinstance(delta_tokens(parse_xml("<a></a>")), tuple)

    def test_tag_terminal_helpers(self):
        assert start_tag("div") == "<div>"
        assert end_tag("div") == "</div>"


class TestContentSymbols:
    def test_paper_section4_example(self):
        # Delta_T(<a><b>A quick brown</b><e></e><c> fox ...</c> dog</a>)
        #   = <a><b></b><e></e><c></c>s</a>  -> children symbols b, e, c, s
        doc = parse_xml(
            "<a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c>"
            " dog</a>"
        )
        assert content_symbols(doc.root) == ["b", "e", "c", SIGMA]

    def test_descendants_invisible(self):
        doc = parse_xml("<a><b><deep>x</deep></b></a>")
        assert content_symbols(doc.root) == ["b"]

    def test_empty_element(self):
        doc = parse_xml("<a></a>")
        assert content_symbols(doc.root) == []

    def test_only_text(self):
        doc = parse_xml("<a>words</a>")
        assert content_symbols(doc.root) == [SIGMA]

    def test_adjacent_text_children_collapse(self):
        root = XmlElement("a")
        root.append(XmlText("x"))
        root.append(XmlText("y"))
        root.append(XmlElement("b"))
        root.append(XmlText("z"))
        assert content_symbols(root) == [SIGMA, "b", SIGMA]

    def test_child_range(self):
        root = XmlElement("a")
        for child in (XmlText("x"), XmlText(""), XmlElement("b"), XmlText("y")):
            root.append(child)
        assert content_symbols(root, 0, 2) == [SIGMA]
        assert content_symbols(root, 1, 3) == ["b"]
        assert content_symbols(root, 2) == ["b", SIGMA]
        assert content_symbols(root, 4) == []

    def test_sigma_is_pcdata_sentinel(self):
        from repro.dtd.model import PCDATA

        assert SIGMA == PCDATA
