"""Seeded fuzzing corpora for the coarse-filter and surface test harnesses.

One place builds every corpus the coarse pass and the serving surfaces
are tested against, so the differential suite
(``test_admission_differential.py``), the surface-equivalence suite
(``test_surfaces.py``), and CI's fuzz job all draw from the same
distribution:

* :func:`valid_documents` — seeded valid documents from
  :class:`~repro.workloads.docgen.DocumentGenerator`, with ``deep`` /
  ``wide`` / ``mixed`` shape presets (recursion depth vs sibling fanout
  stress different coarse-summary tables).
* :func:`mutate` — exactly **one** structural mutation applied to a valid
  document: rename to another declared tag, rename to an *alien*
  (undeclared) tag, child insert / delete / swap, or a character-data
  gap toggle.  Single mutations keep the corrupted corpus adjacent to
  the valid one, which is where a too-eager coarse filter would
  misclassify first.
* :func:`mixed_corpus` — the skewed valid/corrupt mix (provenance
  labelled per document) the differential suites run on.
* :func:`mutate_bytes` — one seeded byte-level edit of a document's text
  (drop, duplicate, swap, truncate, or swap one markup character for
  another), mostly yielding text that is not well formed.
* :func:`mutate_fast_path` — one seeded edit drawn from the scanner's
  expat fast-path alphabet, so the mutant still takes that path and
  expat's accept/reject decision meets the reference's.
* :func:`reference_tokens` — the character lexer's tokens under the
  reference parser's document rules (one root, matching end tags, no
  character data outside the root), the oracle ``scan_events`` is
  pinned against.
* :func:`reference_parse` — the reference parser: those tokens built
  into a tree, the oracle ``parse_xml`` is pinned against and E19's
  reference arm.

Everything is deterministic in ``seed``; nothing here asserts — verdicts
belong to the tests and benchmarks that consume the corpus.
"""

from __future__ import annotations

import random
import string
from typing import Iterator

from repro.dtd.model import DTD
from repro.errors import XmlSyntaxError
from repro.workloads.corrupt import corrupt_inject, corrupt_rename, corrupt_swap
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.lexer import XmlToken, XmlTokenKind, tokenize_xml
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlText

__all__ = [
    "BYTE_MUTATIONS",
    "FAST_PATH_CHARS",
    "MUTATIONS",
    "SHAPES",
    "valid_documents",
    "mutate",
    "mutate_bytes",
    "mutate_fast_path",
    "mixed_corpus",
    "reference_tokens",
    "reference_parse",
]

#: Every single-mutation corruption :func:`mutate` knows how to apply.
MUTATIONS = ("rename", "alien", "insert", "delete", "swap", "gap")

#: Generation shape presets: (target_nodes, max_depth, max_repeat).
SHAPES = {
    "mixed": (30, 8, 3),
    "deep": (40, 24, 1),
    "wide": (60, 3, 8),
}

#: The undeclared tag the ``alien`` mutation renames to — no DTD in the
#: catalog declares it, so embed-reachability can never admit it.
ALIEN_TAG = "zz-alien"


def valid_documents(
    dtd: DTD, count: int, seed: int = 0, shape: str = "mixed"
) -> list[XmlDocument]:
    """*count* seeded valid documents of the given shape preset."""
    target_nodes, max_depth, max_repeat = SHAPES[shape]
    generator = DocumentGenerator(dtd, seed=seed, max_repeat=max_repeat)
    return list(
        generator.documents(count, target_nodes=target_nodes, max_depth=max_depth)
    )


# -- single mutations --------------------------------------------------------


def _inner_elements(document: XmlDocument) -> list[XmlElement]:
    return [
        element
        for element in document.root.iter_elements()
        if element.parent is not None
    ]


def _mutate_alien(document: XmlDocument, rng: random.Random) -> XmlDocument | None:
    """Rename one element (the root included) to an undeclared tag."""
    copy = document.copy()
    elements = list(copy.root.iter_elements())
    rng.choice(elements).name = ALIEN_TAG
    return copy


def _mutate_delete(document: XmlDocument, rng: random.Random) -> XmlDocument | None:
    """Remove one non-root element (its subtree goes with it)."""
    copy = document.copy()
    candidates = _inner_elements(copy)
    if not candidates:
        return None
    target = rng.choice(candidates)
    parent = target.parent
    assert parent is not None
    parent.remove(target)
    return copy


def _mutate_gap(document: XmlDocument, rng: random.Random) -> XmlDocument | None:
    """Toggle a character-data run: drop one, or plant one where none is.

    Inserted gaps land *between* element children, so element-only
    content models see an illegal ``Sigma`` token while mixed models
    shrug it off — exactly the asymmetry the coarse gap hints encode.
    """
    copy = document.copy()
    texted = [
        element
        for element in copy.root.iter_elements()
        if any(isinstance(child, XmlText) for child in element.children)
    ]
    if texted and rng.random() < 0.5:
        element = rng.choice(texted)
        for child in list(element.children):
            if isinstance(child, XmlText):
                element.remove(child)
                return copy
    elements = list(copy.root.iter_elements())
    target = rng.choice(elements)
    position = rng.randint(0, len(target.children))
    target.insert(position, XmlText("stray gap"))
    return copy


def mutate(
    document: XmlDocument,
    dtd: DTD,
    rng: random.Random,
    kind: str | None = None,
) -> tuple[XmlDocument, str] | None:
    """Apply exactly one structural mutation to a copy of *document*.

    Returns ``(mutated, kind)``, or ``None`` when the requested kind does
    not apply to this document (e.g. ``swap`` with no adjacent siblings).
    With ``kind=None`` a random applicable mutation is chosen.
    """
    if kind is None:
        for candidate in rng.sample(MUTATIONS, len(MUTATIONS)):
            result = mutate(document, dtd, rng, kind=candidate)
            if result is not None:
                return result
        return None
    names = dtd.element_names()
    if kind == "rename":
        mutated = corrupt_rename(document, rng, names)
    elif kind == "alien":
        mutated = _mutate_alien(document, rng)
    elif kind == "insert":
        mutated = corrupt_inject(document, rng, rng.choice(names))
    elif kind == "delete":
        mutated = _mutate_delete(document, rng)
    elif kind == "swap":
        mutated = corrupt_swap(document, rng)
    elif kind == "gap":
        mutated = _mutate_gap(document, rng)
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")
    if mutated is None:
        return None
    return mutated, kind


# -- the skewed mix ----------------------------------------------------------


def mixed_corpus(
    dtd: DTD,
    count: int,
    seed: int = 0,
    corrupt_fraction: float = 0.5,
    shape: str = "mixed",
) -> list[tuple[XmlDocument, str]]:
    """A seeded ``(document, provenance)`` mix for admission testing.

    Roughly ``corrupt_fraction`` of the corpus carries one mutation
    (provenance = the mutation kind); the rest is generator-valid
    (provenance ``"valid"``).  Mutations that a mixed content model
    forgives may still be potentially valid — provenance records *what
    was done*, never the verdict, which the consumer must compute.
    """
    if not 0.0 <= corrupt_fraction <= 1.0:
        raise ValueError("corrupt_fraction must be a fraction in [0, 1]")
    rng = random.Random(seed)
    documents = valid_documents(dtd, count, seed=seed, shape=shape)
    corpus: list[tuple[XmlDocument, str]] = []
    for document in documents:
        if rng.random() < corrupt_fraction:
            mutated = mutate(document, dtd, rng)
            if mutated is not None:
                corpus.append(mutated)
                continue
        corpus.append((document, "valid"))
    return corpus


def corpus_documents(
    corpus: list[tuple[XmlDocument, str]]
) -> Iterator[XmlDocument]:
    """Just the documents of a labelled corpus, in order."""
    for document, _provenance in corpus:
        yield document


# -- byte-level mutations ---------------------------------------------------

#: Every byte-level edit :func:`mutate_bytes` knows how to apply.
BYTE_MUTATIONS = ("drop", "duplicate", "swap", "truncate", "markup")

#: The markup characters the ``markup`` edit replaces with one another.
MARKUP_CHARS = "<>/&;"


def mutate_bytes(text: str, rng: random.Random) -> str:
    """*text* with exactly one seeded byte-level edit.

    Drop a byte, duplicate one, swap two adjacent ones, truncate, or
    replace one of ``<>/&;`` with another of them.  Unlike :func:`mutate`
    the result is often not well formed: these mutants probe the scanner
    and its error positions rather than the verdicts.  The corpora are
    ASCII, so a character is a byte.
    """
    kind = rng.choice(BYTE_MUTATIONS)
    if kind == "markup":
        spots = [index for index, char in enumerate(text) if char in MARKUP_CHARS]
        if spots:
            index = rng.choice(spots)
            others = MARKUP_CHARS.replace(text[index], "")
            return text[:index] + rng.choice(others) + text[index + 1 :]
        kind = "drop"
    if len(text) < 2:
        return ""
    index = rng.randrange(len(text) - 1)
    if kind == "drop":
        return text[:index] + text[index + 1 :]
    if kind == "duplicate":
        return text[: index + 1] + text[index:]
    if kind == "swap":
        return text[:index] + text[index + 1] + text[index] + text[index + 2 :]
    return text[:index]


#: The characters of the scanner's expat fast path: ASCII name
#: characters, the markup characters of tags and attribute values, and
#: whitespace, plus ``!`` and ``?``, which spell comments and PIs.  No
#: ``&``, ``[`` or carriage return: those keep a text off that path.
FAST_PATH_CHARS = string.ascii_letters + string.digits + "._:-" + "<>/=\"'" + " \t\n" + "!?"

#: Markup the ``splice`` edit inserts whole: what one character rarely
#: builds, comments and PIs above all.
FAST_PATH_SPLICES = ("<!--", "-->", "<?", "?>", "<?xml version='1.0'?>", "</", "/>", "<a>")


def mutate_fast_path(text: str, rng: random.Random) -> str:
    """*text* with exactly one seeded edit from the fast-path alphabet.

    Replace, insert or drop one character, or splice in a markup
    fragment; inserted characters come from :data:`FAST_PATH_CHARS`.  An
    ASCII corpus text stays ASCII and free of ``&``, ``[`` and carriage
    returns, so the scanner still reads it with expat first: these
    mutants pit expat's accept/reject decisions against the reference's
    (a splice can still open a comment with ``<!-->``, which the scanner
    leaves to the reference loop).
    """
    kind = rng.choice(("replace", "insert", "drop", "splice"))
    index = rng.randrange(len(text) + (kind in ("insert", "splice")))
    if kind == "replace":
        return text[:index] + rng.choice(FAST_PATH_CHARS) + text[index + 1 :]
    if kind == "insert":
        return text[:index] + rng.choice(FAST_PATH_CHARS) + text[index:]
    if kind == "drop":
        return text[:index] + text[index + 1 :]
    return text[:index] + rng.choice(FAST_PATH_SPLICES) + text[index:]


# -- the reference parser ----------------------------------------------------


def reference_tokens(source: str) -> Iterator[XmlToken]:
    """The reference lexer's tokens of *source* under the document rules.

    Independent of the scanner: :func:`~repro.xmlmodel.lexer.tokenize_xml`'s
    stream, checked for one root element, end tags that match the open
    element, and no character data outside the root.  Each violation
    raises at its token (a missing root has no position).  Whitespace
    outside the root and the ``EOF`` token are not yielded.
    """
    open_names: list[str] = []
    root_seen = False
    for token in tokenize_xml(source):
        if token.kind is XmlTokenKind.TEXT:
            if not open_names:
                if token.text.strip():
                    raise XmlSyntaxError(
                        "character data outside the root element",
                        token.line,
                        token.column,
                    )
                continue
        elif token.kind in (XmlTokenKind.START_TAG, XmlTokenKind.EMPTY_TAG):
            if not open_names:
                if root_seen:
                    raise XmlSyntaxError(
                        f"multiple root elements: second root <{token.name}>",
                        token.line,
                        token.column,
                    )
                root_seen = True
            if token.kind is XmlTokenKind.START_TAG:
                open_names.append(token.name)
        elif token.kind is XmlTokenKind.END_TAG:
            if not open_names:
                raise XmlSyntaxError(
                    f"unmatched end tag </{token.name}>", token.line, token.column
                )
            open_name = open_names.pop()
            if open_name != token.name:
                raise XmlSyntaxError(
                    f"end tag </{token.name}> does not match open <{open_name}>",
                    token.line,
                    token.column,
                )
        else:  # EOF
            if open_names:
                raise XmlSyntaxError(
                    f"unclosed element <{open_names[-1]}>", token.line, token.column
                )
            if not root_seen:
                raise XmlSyntaxError("document has no root element")
            return
        yield token


def reference_parse(source: str) -> XmlDocument:
    """*source* parsed by the reference character lexer's token stream.

    Independent of the scanner ``parse_xml`` reads: the tree of
    :func:`reference_tokens`, each error positioned at its token.
    """
    stack: list[XmlElement] = []
    for token in reference_tokens(source):
        if token.kind is XmlTokenKind.TEXT:
            stack[-1].append(XmlText(token.text))
        elif token.kind is XmlTokenKind.END_TAG:
            stack.pop()
        else:
            element = XmlElement(token.name, attributes=dict(token.attributes))
            if stack:
                stack[-1].append(element)
            else:
                root = element
            if token.kind is XmlTokenKind.START_TAG:
                stack.append(element)
    return XmlDocument(root)
