"""Naive potential-validity: bounded search over ``Ext(w, T)``.

Definitions 2-3 taken literally: a document is potentially valid iff *some*
finite sequence of tag-pair insertions (each wrapping a contiguous child
range of some node) produces a valid document.  This module enumerates those
extensions breadth-first — insertion-count order, so the first hit is a
minimal extension — with deduplication on the tree itself.

The search space is infinite (insertions can nest forever), so the search
is bounded by a maximum insertion count and a node budget; the result is
three-valued:

* ``True``  — a valid extension was found (definitely potentially valid),
* ``False`` — the bounded space was exhausted: **no extension with at most
  ``max_insertions`` insertions exists** (a definitive answer to the
  bounded question; the unbounded answer may still be "yes" when more
  insertions would be needed),
* ``None``  — the node budget interrupted the search (inconclusive).

Property tests use ``True`` as a soundness oracle for the fast checkers;
``False`` is cross-checked against the constructive completion's insertion
count, which tells whether the bound sufficed.

A search state is an immutable nested ``(name, attributes, children)``
tuple, text children as ``str``: it is its own ``seen`` key, a successor
rebuilds only the path to the wrapped node and shares every other subtree,
and validity is memoized per subtree.  :class:`DTDValidator` still judges
each element's content, on a one-level shell of the element.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from repro.config import NAIVE_SEARCH_NODE_LIMIT
from repro.dtd.model import DTD
from repro.validity.validator import DTDValidator
from repro.xmlmodel.fastlex import EV_START, EV_TEXT
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlText, walk

__all__ = ["naive_potential_validity"]


def naive_potential_validity(
    dtd: DTD,
    document: XmlDocument,
    max_insertions: int = 6,
    node_limit: int = NAIVE_SEARCH_NODE_LIMIT,
) -> bool | None:
    """Decide potential validity by bounded breadth-first extension search."""
    root = document.root
    if root.name != dtd.root:
        return False
    if any(element.name not in dtd for element in root.iter_elements()):
        return False

    names = dtd.element_names()
    is_valid = _validity(DTDValidator(dtd))
    start = _state(root)
    if is_valid(start):
        return True
    seen = {start}
    queue: deque[tuple[tuple, int]] = deque([(start, 0)])
    explored = 0

    while queue:
        candidate, insertions = queue.popleft()
        if insertions >= max_insertions:
            continue
        for successor in _successors(candidate, names):
            if successor in seen:
                continue
            seen.add(successor)
            explored += 1
            if explored > node_limit:
                return None
            # Validity is checked at enqueue time so a hit never pays for
            # expanding the states queued before it.
            if is_valid(successor):
                return True
            queue.append((successor, insertions + 1))
    return False


def _state(root: XmlElement) -> tuple:
    """*root*'s subtree as a nested ``(name, attributes, children)`` tuple."""
    children: list[list] = [[]]
    for kind, node in walk(root):
        if kind == EV_START:
            children.append([])
        elif kind == EV_TEXT:
            children[-1].append(node.text)
        else:
            own = tuple(children.pop())
            children[-1].append((node.name, tuple(node.attributes.items()), own))
    return children[0][0]


def _successors(root: tuple, names: tuple[str, ...]) -> Iterator[tuple]:
    """All single-insertion extensions of *root* (Definition 2, step (2)).

    Elements are visited in preorder, then every child range and every
    name; each successor rebuilds only the path down to the wrapped node.
    """
    pending = [((), root)]
    while pending:
        path, node = pending.pop()
        name, attributes, children = node
        for index in range(len(children) - 1, -1, -1):
            if isinstance(children[index], tuple):
                pending.append((path + (index,), children[index]))
        for start in range(len(children) + 1):
            for end in range(start, len(children) + 1):
                for wrapper in names:
                    wrapped = (
                        children[:start]
                        + ((wrapper, (), children[start:end]),)
                        + children[end:]
                    )
                    yield _replace(root, path, (name, attributes, wrapped))


def _replace(root: tuple, path: tuple[int, ...], node: tuple) -> tuple:
    """*root* with the node at child-index *path* replaced by *node*."""
    ancestors = []
    for index in path:
        ancestors.append((root, index))
        root = root[2][index]
    for (name, attributes, children), index in reversed(ancestors):
        node = (name, attributes, children[:index] + (node,) + children[index + 1 :])
    return node


def _validity(validator: DTDValidator) -> Callable[[tuple], bool]:
    """``D(T, r)`` membership of search states, memoized per subtree.

    Every state keeps the document's root and only declared names, so a
    state is valid exactly when each of its elements has valid content.
    """
    subtrees: dict[tuple, bool] = {}
    contents: dict[tuple, bool] = {}

    def is_valid(node: tuple) -> bool:
        valid = subtrees.get(node)
        if valid is None:
            name, _attributes, children = node
            # Element children enter the content key by name alone (a
            # one-tuple, so a name never equals a text child).
            key = (name, tuple(c if isinstance(c, str) else c[:1] for c in children))
            valid = contents.get(key)
            if valid is None:
                shell = XmlElement(
                    name,
                    [XmlText(c) if isinstance(c, str) else XmlElement(c[0]) for c in children],
                )
                valid = contents[key] = not validator.validate_element_content(shell)
            valid = valid and all(
                is_valid(child) for child in children if isinstance(child, tuple)
            )
            subtrees[node] = valid
        return valid

    return is_valid
