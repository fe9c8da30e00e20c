"""A standard DTD validator: decides membership in ``D(T, r)``.

Potential validity is defined *relative to* plain validity (Definition 3:
some extension lies in ``D(T, r)``), so the reproduction needs a trustworthy
validator: it grounds the naive baseline, verifies completions, and anchors
the Theorem 1 property tests.

Element content is checked with a set-simulation of the Glushkov automaton
of each element's **original** content model (``?``/``+`` intact — the
Corollary 3.1 normal form applies to potential validity only).  DTDs are
required by XML to have deterministic content models, but the set
simulation is exact for nondeterministic ones too, so we do not rely on
that property.

Character data placement follows XML validity:

* ``EMPTY`` — no content at all (not even whitespace),
* *children* — character data is forbidden, except whitespace-only runs,
  which the spec treats as ignorable markup spacing,
* *mixed* / ``ANY`` — character data is always legal.

The document is read in one :func:`~repro.xmlmodel.tree.walk`, so its
depth is bounded by memory; an issue's path is built from the chain of
open elements only when that element has an issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.dtd.model import (
    AnyContent,
    ChildrenContent,
    DTD,
    EmptyContent,
    MixedContent,
)
from repro.grammar.glushkov import GlushkovAutomaton, build_glushkov
from repro.xmlmodel.fastlex import EV_END, EV_START, EV_TEXT
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlText, walk

__all__ = ["ValidationIssue", "ValidationReport", "DTDValidator"]


@dataclass(frozen=True)
class ValidationIssue:
    """One validity violation, with the offending node's path."""

    path: str
    element: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of validating one document."""

    valid: bool
    issues: tuple[ValidationIssue, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


@lru_cache(maxsize=128)
def _automata(dtd: DTD) -> dict[str, GlushkovAutomaton | None]:
    """Glushkov automaton of each element's original content model."""
    automata: dict[str, GlushkovAutomaton | None] = {}
    for decl in dtd:
        regex = decl.content.regex(dtd)
        automata[decl.name] = None if regex is None else build_glushkov(regex)
    return automata


class DTDValidator:
    """Validates documents against a DTD (root element included)."""

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self._automata = _automata(dtd)

    # -- public API ---------------------------------------------------------

    def validate(self, document: XmlDocument | XmlElement) -> ValidationReport:
        """Validate the whole document, collecting every issue."""
        root = document.root if isinstance(document, XmlDocument) else document
        issues: list[ValidationIssue] = []
        if root.name != self.dtd.root:
            issues.append(
                ValidationIssue(
                    path="/",
                    element=root.name,
                    message=(
                        f"root element is <{root.name}>, expected "
                        f"<{self.dtd.root}>"
                    ),
                )
            )
        # Per open element: its name, its index among its parent's
        # element children and how many element children it has so far.
        chain: list[list] = []
        skipped = 0  # levels into an undeclared element, left unchecked
        for kind, node in walk(root):
            if kind == EV_TEXT:
                continue
            if skipped:
                skipped += 1 if kind == EV_START else -1
                continue
            if kind == EV_END:
                chain.pop()
                continue
            if chain:
                chain.append([node.name, chain[-1][2], 0])
                chain[-2][2] += 1
            else:
                chain.append([node.name, None, 0])
            declared = node.name in self.dtd
            messages = (
                self.validate_element_content(node)
                if declared
                else [f"element type <{node.name}> is not declared"]
            )
            if messages:
                path = "".join(
                    f"/{name}" if index is None else f"/{name}[{index}]"
                    for name, index, _count in chain
                )
                issues.extend(
                    ValidationIssue(path, node.name, message) for message in messages
                )
            if not declared:
                chain.pop()
                skipped = 1
        return ValidationReport(valid=not issues, issues=tuple(issues))

    def is_valid(self, document: XmlDocument | XmlElement) -> bool:
        return self.validate(document).valid

    def validate_element_content(self, node: XmlElement) -> list[str]:
        """Check one node's content in isolation; returns human messages."""
        content = self.dtd[node.name].content
        if isinstance(content, EmptyContent):
            if node.children:
                return [f"<{node.name}> is declared EMPTY but has content"]
            return []
        if isinstance(content, (AnyContent, MixedContent)):
            allowed = (
                frozenset(self.dtd.element_names())
                if isinstance(content, AnyContent)
                else frozenset(content.names)
            )
            return [
                f"<{child.name}> is not permitted inside <{node.name}>"
                for child in node.element_children()
                if child.name not in allowed
            ]
        assert isinstance(content, ChildrenContent)
        messages = []
        if any(
            isinstance(child, XmlText) and child.text.strip()
            for child in node.children
        ):
            messages.append(
                f"character data is not permitted inside <{node.name}> "
                "(element content)"
            )
        labels = [child.name for child in node.element_children()]
        if not self._matches(self._automata[node.name], labels):
            messages.append(
                f"children of <{node.name}> "
                f"({' '.join(labels) if labels else 'none'}) do not match "
                "its content model"
            )
        return messages

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _matches(automaton: GlushkovAutomaton | None, labels: list[str]) -> bool:
        assert automaton is not None
        if not labels:
            return automaton.nullable
        states = {
            index
            for index in automaton.first
            if automaton.position(index).matches_directly(labels[0])
        }
        for label in labels[1:]:
            if not states:
                return False
            next_states: set[int] = set()
            for state in states:
                for successor in automaton.follow[state]:
                    if automaton.position(successor).matches_directly(label):
                        next_states.add(successor)
            states = next_states
        return bool(states & automaton.last)
