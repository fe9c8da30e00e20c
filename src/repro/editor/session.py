"""The guarded editing session.

:class:`EditingSession` enforces the paper's editorial invariant: *after
every accepted operation the document is potentially valid*.  Operations are
vetted by the incremental checks of Sections 3.2/4.1 — O(1) for character
data, two local ECPV runs for markup insertion, and no check at all for
deletions (Theorem 2 closure) — so the per-keystroke cost is independent of
document size except for the wrapped node itself.

A rejected operation leaves the document untouched and either raises
:class:`~repro.errors.EditRejected` (``strict=True``) or is recorded in the
session statistics (``strict=False``); both paths are exercised by the
editor-session benchmark (E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.incremental import IncrementalChecker
from repro.dtd.model import DTD
from repro.editor.document import apply_operation, invert, resolve_element
from repro.editor.operations import (
    DeleteMarkup,
    DeleteText,
    EditOperation,
    InsertMarkup,
    InsertText,
    UpdateText,
)
from repro.errors import EditRejected
from repro.xmlmodel.tree import XmlDocument, XmlElement

__all__ = ["SessionStats", "EditingSession"]


@dataclass
class SessionStats:
    """Counters the E8 benchmark reports."""

    applied: int = 0
    rejected: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def record(self, operation: EditOperation, accepted: bool) -> None:
        kind = type(operation).__name__
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if accepted:
            self.applied += 1
        else:
            self.rejected += 1


class EditingSession:
    """An editing session over one document, guarded by potential validity.

    Parameters
    ----------
    dtd / document:
        The schema and the document being marked up.  The initial document
        must itself be potentially valid (checked at construction).
    strict:
        When ``True`` rejected operations raise
        :class:`~repro.errors.EditRejected`; when ``False`` they return
        ``False`` and are only counted.
    compiled:
        Optional pre-fetched :class:`~repro.service.compiled.CompiledSchema`
        for *dtd*.  Multi-session services (one session per connected
        editor over a shared schema) pass the registry artifact here so
        opening a session never recompiles; without it the session
        resolves the DTD through the default registry, which amortizes
        just as well after the first session.
    """

    def __init__(
        self,
        dtd: DTD,
        document: XmlDocument,
        strict: bool = True,
        *,
        compiled=None,
    ) -> None:
        self.dtd = dtd
        self.document = document
        self.strict = strict
        self.checker = IncrementalChecker(dtd, compiled=compiled)
        self.stats = SessionStats()
        self._undo: list[EditOperation] = []
        verdict = self.checker.checker.check_document(document)
        if not verdict:
            reasons = "; ".join(str(failure) for failure in verdict.failures)
            raise EditRejected(
                f"initial document is not potentially valid: {reasons}"
            )

    # -- the guarded entry point ------------------------------------------------

    def apply(self, operation: EditOperation) -> bool:
        """Check and apply *operation*; returns whether it was accepted."""
        ok, reason = self._admissible(operation)
        self.stats.record(operation, ok)
        if not ok:
            if self.strict:
                raise EditRejected(reason)
            return False
        self._undo.append(invert(self.document, operation))
        apply_operation(self.document, operation)
        return True

    def undo(self) -> bool:
        """Undo the most recent accepted operation (returns False when empty).

        Undo operations are applied unchecked: every inverse of an accepted
        operation restores a previously potentially valid state.
        """
        if not self._undo:
            return False
        apply_operation(self.document, self._undo.pop())
        return True

    @property
    def undo_depth(self) -> int:
        return len(self._undo)

    # -- the per-operation admissibility rules -----------------------------------

    def _admissible(self, operation: EditOperation) -> tuple[bool, str]:
        if isinstance(operation, InsertMarkup):
            parent = resolve_element(self.document, operation.parent)
            if not (0 <= operation.start <= operation.end <= len(parent.children)):
                return False, "wrap range out of bounds"
            if self.checker.check_markup_insert(
                parent, operation.start, operation.end, operation.name
            ):
                return True, ""
            return (
                False,
                f"wrapping children [{operation.start}:{operation.end}) of "
                f"<{parent.name}> in <{operation.name}> would break potential "
                "validity",
            )
        if isinstance(operation, DeleteMarkup):
            if not operation.target:
                return False, "cannot delete the root element's markup"
            # Theorem 2: markup deletion preserves potential validity.
            return True, ""
        if isinstance(operation, InsertText):
            parent = resolve_element(self.document, operation.parent)
            if not 0 <= operation.index <= len(parent.children):
                return False, "text index out of bounds"
            if not operation.text:
                return True, ""  # inserting nothing is a no-op
            if self.checker.check_text_insert(parent, operation.index):
                return True, ""
            return (
                False,
                f"character data is not insertable at index {operation.index} "
                f"of <{parent.name}>",
            )
        if isinstance(operation, (UpdateText, DeleteText)):
            # Theorem 2: character-data updates and deletions are PV-safe.
            return True, ""
        return False, f"unknown operation {operation!r}"  # pragma: no cover

    # -- conveniences -------------------------------------------------------------

    def root(self) -> XmlElement:
        return self.document.root

    def is_potentially_valid(self) -> bool:
        """Full re-check (for tests; sessions maintain this as an invariant)."""
        return self.checker.checker.is_potentially_valid(self.document)
