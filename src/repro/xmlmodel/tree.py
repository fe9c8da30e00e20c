"""A lightweight mutable DOM for document-centric XML.

The paper's editorial model works on a document tree (its Figure 2 DOM
trees) under three families of operations:

* **markup insertion** — wrap a *contiguous* range of a node's children in a
  new element (:meth:`XmlElement.wrap_children`); this is exactly the
  ``Ext(w, T)`` extension step of Definition 2,
* **markup deletion** — splice an element's children into its parent
  (:meth:`XmlElement.unwrap_child`), the inverse operation, under which
  potential validity is closed (Theorem 2),
* **character-data operations** — insert/update/delete text nodes
  (Section 3.2's character data updates and insertions).

Design notes
------------
Attributes are carried through parsing/serialization for fidelity but play
no role in any algorithm (paper footnote 3).  Adjacent text children are
*not* auto-merged on construction — the ``delta`` operators collapse runs of
character data exactly as the paper's ``delta_T`` does, so keeping the raw
segmentation lets tests exercise that collapse.

Every traversal of a tree is :func:`walk`, one iterative pass in document
order: the helpers below, ``delta_T``, serialization, the validator and
the checking walk's tree feeder all read its events, so tree depth is
bounded by memory, not by the interpreter stack.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import XmlStructureError
from repro.xmlmodel.fastlex import EV_END, EV_START, EV_TEXT

__all__ = ["XmlText", "XmlElement", "XmlNode", "XmlDocument", "walk"]


class XmlText:
    """A character-data node."""

    __slots__ = ("text", "parent")

    def __init__(self, text: str) -> None:
        self.text = text
        self.parent: XmlElement | None = None

    def copy(self) -> "XmlText":
        return XmlText(self.text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.text if len(self.text) <= 24 else self.text[:21] + "..."
        return f"XmlText({preview!r})"


class XmlElement:
    """An element node with ordered children and optional attributes."""

    __slots__ = ("name", "children", "attributes", "parent")

    def __init__(
        self,
        name: str,
        children: Sequence["XmlNode"] | None = None,
        attributes: dict[str, str] | None = None,
    ) -> None:
        self.name = name
        self.children: list[XmlNode] = []
        self.attributes: dict[str, str] = dict(attributes or {})
        self.parent: XmlElement | None = None
        for child in children or ():
            self.append(child)

    # -- construction / mutation ------------------------------------------

    def append(self, child: "XmlNode") -> "XmlNode":
        """Append *child* (detaching it from any previous parent)."""
        return self.insert(len(self.children), child)

    def insert(self, index: int, child: "XmlNode") -> "XmlNode":
        """Insert *child* at *index* (detaching it from any previous parent)."""
        if child.parent is not None:
            child.parent.remove(child)
        if not 0 <= index <= len(self.children):
            raise XmlStructureError(
                f"insert index {index} out of range for {len(self.children)} children"
            )
        self.children.insert(index, child)
        child.parent = self
        return child

    def remove(self, child: "XmlNode") -> "XmlNode":
        """Remove *child* from this element (identity match)."""
        for index, existing in enumerate(self.children):
            if existing is child:
                del self.children[index]
                child.parent = None
                return child
        raise XmlStructureError("node is not a child of this element")

    def wrap_children(self, start: int, end: int, name: str) -> "XmlElement":
        """Wrap children ``[start:end)`` in a new ``<name>`` element.

        This is the markup-insertion primitive of Definition 2: the new
        element replaces a *contiguous* (possibly empty) range of children
        and adopts them.  Returns the new element.
        """
        if not (0 <= start <= end <= len(self.children)):
            raise XmlStructureError(
                f"wrap range [{start}, {end}) invalid for {len(self.children)} children"
            )
        wrapped = self.children[start:end]
        wrapper = XmlElement(name)
        for node in wrapped:
            node.parent = wrapper
        wrapper.children = list(wrapped)
        self.children[start:end] = [wrapper]
        wrapper.parent = self
        return wrapper

    def unwrap_child(self, child: "XmlElement") -> list["XmlNode"]:
        """Markup deletion: splice *child*'s children into its place.

        Returns the spliced nodes.  The inverse of :meth:`wrap_children`;
        Theorem 2 says potential validity is closed under this operation.
        """
        index = self.index_of(child)
        grandchildren = list(child.children)
        for node in grandchildren:
            node.parent = self
        child.children = []
        child.parent = None
        self.children[index : index + 1] = grandchildren
        return grandchildren

    def index_of(self, child: "XmlNode") -> int:
        """Return the position of *child* among this element's children."""
        for index, existing in enumerate(self.children):
            if existing is child:
                return index
        raise XmlStructureError("node is not a child of this element")

    # -- queries -------------------------------------------------------------

    def element_children(self) -> list["XmlElement"]:
        """Child nodes that are elements, in order."""
        return [child for child in self.children if isinstance(child, XmlElement)]

    def iter_elements(self) -> Iterator["XmlElement"]:
        """Yield this element and all descendant elements in document order."""
        for kind, node in walk(self):
            if kind == EV_START:
                yield node

    def content(self) -> str:
        """Concatenated character data in document order (paper ``content(w)``)."""
        return "".join(node.text for kind, node in walk(self) if kind == EV_TEXT)

    def depth(self) -> int:
        """Depth of the subtree rooted here (a leaf element has depth 1)."""
        depth = deepest = 0
        for kind, _node in walk(self):
            if kind == EV_START:
                depth += 1
                deepest = max(deepest, depth)
            elif kind == EV_END:
                depth -= 1
        return deepest

    def node_count(self) -> int:
        """Number of nodes (elements + text) in this subtree, inclusive."""
        return sum(1 for kind, _node in walk(self) if kind != EV_END)

    def copy(self) -> "XmlElement":
        """Deep copy of this subtree (detached)."""
        clones: list[XmlElement] = []
        for kind, node in walk(self):
            if kind == EV_START:
                clone = XmlElement(node.name, attributes=node.attributes)
                if clones:
                    clones[-1].append(clone)
                clones.append(clone)
            elif kind == EV_TEXT:
                clones[-1].append(XmlText(node.text))
            else:
                clone = clones.pop()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XmlElement({self.name!r}, children={len(self.children)})"


XmlNode = XmlText | XmlElement


def walk(node: XmlNode) -> Iterator[tuple[int, XmlNode]]:
    """Yield ``(kind, node)`` for every node of *node*'s subtree, in document order.

    An element yields ``EV_START`` before its children and ``EV_END``
    after them; a text node yields ``EV_TEXT`` once (the event kinds of
    :func:`~repro.xmlmodel.fastlex.scan_events`).  The walk keeps one
    child iterator per open element on an explicit stack, so no Python
    call is made per level.
    """
    if isinstance(node, XmlText):
        yield EV_TEXT, node
        return
    yield EV_START, node
    stack = [(node, iter(node.children))]
    while stack:
        element, children = stack[-1]
        for child in children:
            if isinstance(child, XmlText):
                yield EV_TEXT, child
            else:
                yield EV_START, child
                stack.append((child, iter(child.children)))
                break
        else:
            stack.pop()
            yield EV_END, element


class XmlDocument:
    """A well-formed XML document: exactly one root element."""

    __slots__ = ("root",)

    def __init__(self, root: XmlElement) -> None:
        if root.parent is not None:
            raise XmlStructureError("document root must be detached")
        self.root = root

    def iter_elements(self) -> Iterator[XmlElement]:
        """All elements in document order."""
        return self.root.iter_elements()

    def element_names(self) -> frozenset[str]:
        """The paper's ``elements(w)``: the set of element types used."""
        return frozenset(element.name for element in self.iter_elements())

    def content(self) -> str:
        """The paper's ``content(w)``."""
        return self.root.content()

    def depth(self) -> int:
        return self.root.depth()

    def node_count(self) -> int:
        return self.root.node_count()

    def copy(self) -> "XmlDocument":
        return XmlDocument(self.root.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XmlDocument(root={self.root.name!r}, nodes={self.node_count()})"
