"""Markup suggestions: which insertions does potential validity permit?

The editorial loop the paper motivates is not only *guarding* operations
but *offering* them: given a selected contiguous range of a node's
children, which element tags can legally wrap it?  And given a node, which
single insertions are possible at all?  Both reduce to Section 4's two-ECPV
rule evaluated over candidate element names, pre-filtered by the
reachability lookup table so the candidate set stays small:

* a wrap of a *non-empty* range by ``y`` requires every wrapped symbol to
  be equal to or embed-reachable from a symbol of ``r_y`` (Proposition 2's
  necessary condition), and ``y`` itself to be reachable from the parent
  (or directly present in its content model);
* a wrap of an *empty* range (inserting ``<y/>``) requires ``y`` to be
  insertable in the parent's content at that boundary.

The final verdict always runs the exact incremental check, so suggestions
are sound and complete over the candidate set; the filters only buy speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.incremental import IncrementalChecker
from repro.dtd.model import DTD, PCDATA
from repro.xmlmodel.delta import SIGMA, content_symbols
from repro.xmlmodel.tree import XmlElement

__all__ = ["WrapSuggestion", "MarkupSuggester"]


@dataclass(frozen=True)
class WrapSuggestion:
    """One admissible wrap: ``<name>`` around children ``[start:end)``."""

    name: str
    start: int
    end: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name}> around children [{self.start}:{self.end})"


class MarkupSuggester:
    """Computes admissible markup insertions for editor UIs."""

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.checker = IncrementalChecker(dtd)
        self.analysis = self.checker.checker.analysis

    # -- candidate filtering ----------------------------------------------------

    def _candidate_names(
        self, parent: XmlElement, symbols: list[str]
    ) -> list[str]:
        """Names that pass the cheap reachability necessary-conditions."""
        analysis = self.analysis
        parent_regex_names = self.dtd.referenced_names(parent.name)
        candidates: list[str] = []
        for name in self.dtd.element_names():
            # y must be placeable under the parent at all.
            if name not in parent_regex_names and not analysis.can_embed(
                parent.name, name
            ):
                continue
            # Every wrapped symbol must fit inside y.
            def fits(symbol: str) -> bool:
                if symbol == SIGMA:
                    return analysis.can_embed(name, PCDATA) or self.dtd[
                        name
                    ].allows_pcdata_directly()
                return symbol in self.dtd.referenced_names(name) or analysis.can_embed(
                    name, symbol
                )

            if all(fits(symbol) for symbol in symbols):
                candidates.append(name)
        return candidates

    # -- public API ------------------------------------------------------------

    def wraps_for_range(
        self, parent: XmlElement, start: int, end: int
    ) -> list[str]:
        """Element names that may wrap children ``[start:end)`` of *parent*.

        Sound and complete: each returned name passes the exact two-ECPV
        incremental check (assuming the document is currently potentially
        valid, per Section 4's locality argument).
        """
        symbols = content_symbols(parent, start, end)
        names: list[str] = []
        for name in self._candidate_names(parent, symbols):
            if self.checker.check_markup_insert(parent, start, end, name):
                names.append(name)
        return names

    def all_wraps(self, parent: XmlElement, max_span: int | None = None) -> list[WrapSuggestion]:
        """Every admissible wrap of any contiguous child range of *parent*.

        ``max_span`` caps the range width (editor UIs usually suggest for
        the current selection only; the exhaustive variant exists for tests
        and for the suggestion-coverage experiment).
        """
        suggestions: list[WrapSuggestion] = []
        count = len(parent.children)
        for start in range(count + 1):
            limit = count if max_span is None else min(count, start + max_span)
            for end in range(start, limit + 1):
                for name in self.wraps_for_range(parent, start, end):
                    suggestions.append(WrapSuggestion(name, start, end))
        return suggestions

    def text_insertion_points(self, parent: XmlElement) -> list[int]:
        """Child indices at which new character data may be inserted."""
        return [
            index
            for index in range(len(parent.children) + 1)
            if self.checker.check_text_insert(parent, index)
        ]
