"""Content-model abstract syntax trees.

A DTD Element Type Declaration right-hand side (the paper's ``r_x``) is a
regular expression over element names and ``#PCDATA``.  This module defines
the immutable AST for those expressions and :func:`fold`, the one traversal
every bottom-up computation over a content model runs on: the word-existence
predicates (:func:`language_nullable`, :func:`mentionable`) behind
productivity (Section 3.3) and embed-reachability (Definition 5), the
minimal-witness costs (:func:`min_cost_word`, Figure 3 completions),
:func:`to_text`, and elsewhere the normalizer, the star-group flattening,
the Glushkov construction, the grammar builders and the coarse summary.
Like :func:`repro.xmlmodel.tree.walk`, :func:`fold` keeps an explicit
stack: a rule sees each node on the way down and its children's results
on the way up, with no Python call per level, so nesting depth is bounded
by memory, not by the interpreter stack.

Nodes are frozen dataclasses.  A node's hash is computed once, bottom-up,
and cached; equality compares two preorder walks; a node pickles as its
flat postorder.  The :class:`StarGroup` leaf of flattened models
(Proposition 1) is a node too, nullable and mentioning nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

__all__ = [
    "ContentNode",
    "PCData",
    "Name",
    "Seq",
    "Choice",
    "Star",
    "Plus",
    "Opt",
    "StarGroup",
    "children",
    "walk",
    "fold",
    "element_names",
    "mentions_pcdata",
    "language_nullable",
    "mentionable",
    "min_cost_word",
    "node_size",
    "to_text",
]

_new = object.__new__


class _Node:
    """Hashing, equality and pickling shared by every content node."""

    __slots__ = ()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is not None:
            return cached

        def up(node: ContentNode, results: list) -> int:
            value = node.__dict__.get("_hash")
            if value is None:
                value = node.__dict__["_hash"] = hash((type(node), _label(node), *results))
            return value

        # A subtree hashed before is not entered again.
        return fold(self, up, lambda node: "_hash" not in node.__dict__)  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        # A preorder of labels (child counts included) spells one tree.
        return hash(self) == hash(other) and all(
            type(mine) is type(theirs) and _label(mine) == _label(theirs)
            for mine, theirs in zip(walk(self), walk(other))  # type: ignore[arg-type]
        )

    def __reduce__(self):
        flat: list = []

        def up(node: ContentNode, results: list) -> None:
            if isinstance(node, (Seq, Choice, Star, Plus, Opt)):
                flat.append((_INNER.index(type(node)), len(results)))
            else:
                flat.append(None if isinstance(node, PCData) else _label(node))

        fold(self, up)  # type: ignore[arg-type]
        return _rebuild, (tuple(flat),)


@dataclass(frozen=True, eq=False)
class PCData(_Node):
    """An occurrence of ``#PCDATA`` in a content model."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PCData()"


@dataclass(frozen=True, eq=False)
class Name(_Node):
    """A reference to an element type by name (the paper's ``y`` in ``r_x``)."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Name({self.name!r})"


@dataclass(frozen=True, eq=False)
class Seq(_Node):
    """A comma sequence ``(e1, e2, ..., en)``; requires ``len(items) >= 1``."""

    items: tuple["ContentNode", ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("Seq requires at least one item")


@dataclass(frozen=True, eq=False)
class Choice(_Node):
    """An alternation ``(e1 | e2 | ... | en)``; requires ``len(items) >= 1``."""

    items: tuple["ContentNode", ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("Choice requires at least one item")


@dataclass(frozen=True, eq=False)
class Star(_Node):
    """Kleene repetition ``e*`` (zero or more)."""

    item: "ContentNode"


@dataclass(frozen=True, eq=False)
class Plus(_Node):
    """Positive repetition ``e+`` (one or more)."""

    item: "ContentNode"


@dataclass(frozen=True, eq=False)
class Opt(_Node):
    """Optionality ``e?`` (zero or one)."""

    item: "ContentNode"


@dataclass(frozen=True, eq=False)
class StarGroup(_Node):
    """A flattened star-group leaf: the set of symbols it may repeat.

    ``members`` holds element names, plus the ``#PCDATA`` sentinel
    (:data:`repro.dtd.model.PCDATA`) when ``#PCDATA`` occurred inside the
    group; the paper labels star-group DAG nodes with exactly this list.
    :mod:`repro.dtd.stargroups` builds these leaves.
    """

    members: frozenset[str]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        listed = ", ".join(sorted(self.members))
        return f"StarGroup({{{listed}}})"


ContentNode = Union[PCData, Name, Seq, Choice, Star, Plus, Opt]

#: Inner node kinds by their index in the pickled flat form.
_INNER = (Seq, Choice, Star, Plus, Opt)


def children(node: ContentNode) -> tuple[ContentNode, ...]:
    """Return the immediate sub-expressions of *node* (empty for leaves)."""
    kind = type(node)
    if kind is Seq or kind is Choice:
        return node.items  # type: ignore[union-attr]
    if kind is Star or kind is Plus or kind is Opt:
        return (node.item,)  # type: ignore[union-attr]
    return ()


def _label(node: ContentNode) -> object:
    """What tells *node* from another node of its type besides its children."""
    if isinstance(node, Name):
        return node.name
    if isinstance(node, StarGroup):
        return node.members
    return len(children(node))


def _rebuild(flat: tuple) -> ContentNode:
    """The node :meth:`_Node.__reduce__` flattened, from its postorder entries.

    An entry is a leaf (an element name, ``None`` for ``#PCDATA``, a
    star-group's members) or an inner node's ``(kind, child count)``.
    Like the pickle module, this makes each node empty and sets its field
    in place, running no constructor.
    """
    values: list = []
    for entry in flat:
        if entry.__class__ is tuple:
            kind, count = _INNER[entry[0]], entry[1]
            node = _new(kind)
            if kind is Seq or kind is Choice:
                node.__dict__["items"] = tuple(values[-count:])
            else:
                node.__dict__["item"] = values[-1]
            del values[-count:]
        elif entry is None:
            node = _new(PCData)
        elif entry.__class__ is str:
            node = _new(Name)
            node.__dict__["name"] = entry
        else:
            node = _new(StarGroup)
            node.__dict__["members"] = entry
        values.append(node)
    return values[0]


def walk(node: ContentNode) -> Iterator[ContentNode]:
    """Yield *node* and all of its sub-expressions in preorder."""
    stack: list[ContentNode] = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def fold(
    node: ContentNode,
    up: Callable[[ContentNode, list], object],
    down: Callable[[ContentNode], object] | None = None,
):
    """Fold *node* bottom-up in one pass, returning ``up``'s result for *node*.

    ``down(n)``, when given, sees every node before its children, in
    preorder; returning ``False`` skips them.  ``up(n, results)`` sees every
    node after its children, with their results in order (empty for a leaf
    or a skipped node), and returns ``n``'s own result.  Each open node's
    pending children sit on an explicit stack.
    """
    kids = children(node) if down is None or down(node) is not False else ()
    if not kids:
        return up(node, ())  # type: ignore[arg-type]
    values: list = []
    stack = [(node, iter(kids), 0)]
    while stack:
        parent, pending, base = stack[-1]
        for kid in pending:
            kids = children(kid) if down is None or down(kid) is not False else ()
            if kids:
                stack.append((kid, iter(kids), len(values)))
                break
            values.append(up(kid, ()))  # type: ignore[arg-type]
        else:
            stack.pop()
            results = values[base:]
            del values[base:]
            values.append(up(parent, results))
    return values[0]


def element_names(node: ContentNode) -> frozenset[str]:
    """Return the set of element names mentioned anywhere in *node*."""
    return frozenset(n.name for n in walk(node) if isinstance(n, Name))


def mentions_pcdata(node: ContentNode) -> bool:
    """Return ``True`` if ``#PCDATA`` occurs anywhere in *node*."""
    return any(isinstance(n, PCData) for n in walk(node))


def language_nullable(node: ContentNode, name_nullable: Callable[[str], bool]) -> bool:
    """Decide whether ``L(node)`` contains a word made only of "nullable" symbols.

    *name_nullable(y)* says whether symbol ``y`` counts as erasable for the
    purpose at hand.  Two standing uses:

    * productivity analysis — ``name_nullable = productive`` decides whether
      the content model admits *some* word over productive element types
      (``#PCDATA`` always counts: character data is always realizable);
    * potential-validity skip analysis — ``name_nullable(y)`` = "a complete
      valid subtree for ``y`` can be inserted", which is the same predicate.

    The fold is purely structural, so callers handle fixpoints (the mutual
    recursion through element declarations) themselves.
    """

    def up(current: ContentNode, results: list) -> bool:
        if isinstance(current, Name):
            return name_nullable(current.name)
        if isinstance(current, Seq):
            return all(results)
        if isinstance(current, (Choice, Plus)):
            return any(results)
        return True  # #PCDATA, e*, e? and star-groups all admit a word

    return fold(node, up)  # type: ignore[return-value]


def mentionable(
    node: ContentNode, name_nullable: Callable[[str], bool]
) -> frozenset[str | None]:
    """The symbols some word of ``L(node)`` over completable symbols mentions.

    A word "mentions" a symbol (``None`` for ``#PCDATA``) when it contains
    it and every *other* symbol of the word satisfies *name_nullable*.
    These are the edges of the *embed-reachability* graph: with every
    element usable they are Definition 5's syntactic ``R_T`` edges, and
    they stay exact for DTDs with unusable element types.  One rule gives
    each node its nullability and its mentions; a sequence keeps an item's
    mentions only while every other item is nullable.
    """

    def up(current: ContentNode, results: list) -> tuple[bool, frozenset]:
        if isinstance(current, Name):
            return name_nullable(current.name), frozenset((current.name,))
        if isinstance(current, (PCData, StarGroup)):
            return True, frozenset((None,) if isinstance(current, PCData) else ())
        if isinstance(current, Plus):
            return results[0]
        required = [mentions for nullable, mentions in results if not nullable]
        if isinstance(current, Seq) and required:
            return False, required[0] if len(required) == 1 else frozenset()
        nullable = not isinstance(current, Choice) or len(required) < len(results)
        return nullable, frozenset().union(*[mentions for _, mentions in results])

    return fold(node, up)[1]  # type: ignore[index]


def min_cost_word(node: ContentNode, name_cost: Callable[[str], float]) -> float:
    """Return the minimum total cost of a word in ``L(node)``.

    *name_cost(y)* is the cost of symbol ``y`` (``float('inf')`` when ``y``
    cannot be completed at all); ``#PCDATA`` costs 0 because an empty text
    node satisfies it.  Used by the minimal-witness synthesizer: the cost of
    an element is ``1 +`` the min-cost word of its content model, computed
    to fixpoint over the whole DTD.
    """

    def up(current: ContentNode, results: list) -> float:
        if isinstance(current, Name):
            return name_cost(current.name)
        if isinstance(current, Seq):
            return sum(results)
        if isinstance(current, Choice):
            return min(results)
        if isinstance(current, Plus):
            return results[0]
        return 0.0  # #PCDATA, e* and e? admit the empty word

    return fold(node, up)  # type: ignore[return-value]


def node_size(node: ContentNode) -> int:
    """Return the number of AST nodes in *node* (the paper's ``k`` counts leaves)."""
    return sum(1 for _ in walk(node))


_SUFFIX = {Star: "*", Plus: "+", Opt: "?"}


def to_text(node: ContentNode) -> str:
    """Render *node* in DTD syntax (canonical spacing, minimal parentheses)."""
    pieces: list[str] = []

    def down(current: ContentNode) -> None:
        if isinstance(current, (Seq, Choice)):
            pieces.append("(")

    def up(current: ContentNode, starts: list) -> int:
        # A node's result is the index of its first piece, so a group can
        # put its separators in front of its later items.
        if isinstance(current, (Seq, Choice)):
            separator = ", " if isinstance(current, Seq) else " | "
            for start in starts[1:]:
                pieces[start] = separator + pieces[start]
            pieces.append(")")
            return starts[0] - 1
        if type(current) in _SUFFIX:
            if isinstance(current.item, PCData):  # type: ignore[union-attr]
                pieces[starts[0]] = "(#PCDATA)"
            pieces.append(_SUFFIX[type(current)])
            return starts[0]
        if isinstance(current, PCData):
            pieces.append("#PCDATA")
        elif isinstance(current, Name):
            pieces.append(current.name)
        else:
            raise TypeError(f"unexpected content node {current!r}")
        return len(pieces) - 1

    fold(node, up, down)
    return "".join(pieces)
