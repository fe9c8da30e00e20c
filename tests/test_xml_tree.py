"""Tests for the DOM: structure, edits, queries."""

from __future__ import annotations

import pytest

from repro.errors import XmlStructureError
from repro.xmlmodel.delta import SIGMA, delta_symbols
from repro.xmlmodel.fastlex import EV_END, EV_START, EV_TEXT
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlText, walk

#: A hundred times the interpreter's default recursion limit.
DEEP = 100_000


def build_sample() -> XmlElement:
    root = XmlElement("a")
    root.append(XmlText("one "))
    b = root.append(XmlElement("b"))
    assert isinstance(b, XmlElement)
    b.append(XmlText("two"))
    root.append(XmlText(" three"))
    return root


class TestMutation:
    def test_append_sets_parent(self):
        root = XmlElement("a")
        child = root.append(XmlElement("b"))
        assert child.parent is root
        assert root.children == [child]

    def test_insert_positions(self):
        root = XmlElement("a")
        first = root.append(XmlElement("x"))
        second = root.insert(0, XmlElement("y"))
        assert [c.name for c in root.element_children()] == ["y", "x"]
        assert second.parent is root and first.parent is root

    def test_insert_out_of_range(self):
        with pytest.raises(XmlStructureError):
            XmlElement("a").insert(5, XmlText("x"))

    def test_reparenting_detaches(self):
        a, b = XmlElement("a"), XmlElement("b")
        child = a.append(XmlElement("c"))
        b.append(child)
        assert a.children == []
        assert child.parent is b

    def test_remove_unrelated_raises(self):
        with pytest.raises(XmlStructureError):
            XmlElement("a").remove(XmlText("stray"))

    def test_wrap_children(self):
        root = build_sample()
        wrapper = root.wrap_children(1, 3, "w")
        assert [type(c).__name__ for c in root.children] == ["XmlText", "XmlElement"]
        assert wrapper.parent is root
        assert len(wrapper.children) == 2
        assert to_xml(root) == "<a>one <w><b>two</b> three</w></a>"

    def test_wrap_empty_range(self):
        root = build_sample()
        root.wrap_children(0, 0, "w")
        assert to_xml(root) == "<a><w></w>one <b>two</b> three</a>"

    def test_wrap_bad_range(self):
        with pytest.raises(XmlStructureError):
            build_sample().wrap_children(2, 1, "w")
        with pytest.raises(XmlStructureError):
            build_sample().wrap_children(0, 9, "w")

    def test_unwrap_inverts_wrap(self):
        root = build_sample()
        before = to_xml(root)
        wrapper = root.wrap_children(0, 2, "w")
        root.unwrap_child(wrapper)
        assert to_xml(root) == before

    def test_unwrap_empty_element_removes_it(self):
        root = XmlElement("a")
        e = root.append(XmlElement("e"))
        root.unwrap_child(e)
        assert root.children == []


class TestQueries:
    def test_content_document_order(self):
        root = build_sample()
        assert root.content() == "one two three"

    def test_depth(self):
        assert build_sample().depth() == 2
        assert XmlElement("a").depth() == 1

    def test_node_count(self):
        assert build_sample().node_count() == 5

    def test_iter_elements_document_order(self):
        doc = parse_xml("<a><b><c></c></b><d></d></a>")
        names = [e.name for e in doc.iter_elements()]
        assert names == ["a", "b", "c", "d"]

    def test_element_children_skips_text(self):
        root = build_sample()
        assert [c.name for c in root.element_children()] == ["b"]

    def test_copy_is_deep_and_detached(self):
        root = build_sample()
        clone = root.copy()
        assert to_xml(clone) == to_xml(root)
        clone.children[1].children[0].text = "changed"  # type: ignore[union-attr]
        assert root.content() == "one two three"

    def test_element_names(self):
        doc = parse_xml("<a><b></b><b></b><c></c></a>")
        assert doc.element_names() == frozenset({"a", "b", "c"})

    def test_walk_yields_events_in_document_order(self):
        doc = parse_xml("<a>t<b><c></c></b>u</a>")
        events = [
            (kind, node.text if kind == EV_TEXT else node.name)
            for kind, node in walk(doc.root)
        ]
        assert events == [
            (EV_START, "a"), (EV_TEXT, "t"), (EV_START, "b"), (EV_START, "c"),
            (EV_END, "c"), (EV_END, "b"), (EV_TEXT, "u"), (EV_END, "a"),
        ]
        text = XmlText("v")
        assert list(walk(text)) == [(EV_TEXT, text)]


class TestDeepTrees:
    """Every traversal is the one iterative walk, so a tree ``DEEP``
    levels deep answers every query."""

    TEXT = "<r>" + "<x>" * DEEP + "t" + "</x>" * DEEP + "</r>"

    @pytest.fixture(scope="class")
    def deep(self):
        return parse_xml(self.TEXT)

    def test_queries(self, deep):
        assert deep.depth() == DEEP + 1
        assert deep.node_count() == DEEP + 2
        assert deep.content() == "t"
        assert [element.name for element in deep.iter_elements()] == (
            ["r"] + ["x"] * DEEP
        )

    def test_copy_round_trips(self, deep):
        clone = deep.copy()
        assert clone.root is not deep.root
        assert to_xml(clone) == self.TEXT

    def test_delta_symbols(self, deep):
        assert delta_symbols(deep) == (
            ["<r>"] + ["<x>"] * DEEP + [SIGMA] + ["</x>"] * DEEP + ["</r>"]
        )


class TestDocument:
    def test_root_must_be_detached(self):
        root = XmlElement("a")
        root.append(XmlElement("b"))
        with pytest.raises(XmlStructureError):
            XmlDocument(root.children[0])  # type: ignore[arg-type]

    def test_document_queries_delegate(self):
        doc = XmlDocument(build_sample())
        assert doc.content() == "one two three"
        assert doc.depth() == 2
        assert doc.node_count() == 5
