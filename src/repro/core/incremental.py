"""Update-time potential-validity checks (Sections 3.2 and 4.1).

The editorial workflow checks each *operation*, not the whole document:

* **Character-data update** (changing an existing text node): always
  preserves potential validity (Theorem 2) — ``delta_T`` maps any non-empty
  run to the same single sigma.  The only transitions that matter are a
  text node becoming empty (a content deletion — also closed, Theorem 2)
  or an empty one becoming non-empty (an insertion, below).  O(1).
* **Character-data insertion** (creating a new text node under element
  ``x``): the paper's Proposition 3 rule answers in O(1) with one lookup,
  ``x ⤳ #PCDATA``.  We implement that rule verbatim
  (:func:`prop3_char_insert_ok`) *and* an exact positional check
  (:func:`check_text_insert`).  The two agree whenever ``x`` has mixed
  content (text is legal at every slot); with transitive-only reachability
  the O(1) rule is necessary but not sufficient — see the documented
  counterexample in the tests and EXPERIMENTS.md.
* **Markup deletion**: closed under potential validity (Theorem 2), no
  check needed — :func:`check_markup_delete` returns a constant ``True``
  and exists so editor code reads uniformly.
* **Markup insertion** (wrapping children ``[i:j)`` of ``x`` with a new
  ``<y>``): Section 4's reduction — solve Problem ECPV twice, once for the
  new node and once for the modified parent.  Everything else in the
  document is untouched, so on a previously potentially valid document the
  two local checks are equivalent to a full re-check (property-tested).
"""

from __future__ import annotations

from repro.core.pv import PVChecker
from repro.dtd.model import DTD, PCDATA
from repro.xmlmodel.delta import SIGMA, content_symbols
from repro.xmlmodel.tree import XmlElement, XmlText

__all__ = [
    "IncrementalChecker",
    "prop3_char_insert_ok",
]


def prop3_char_insert_ok(checker_or_dtd, element: str) -> bool:
    """Proposition 3's O(1) rule: text may be inserted under ``element``
    iff ``element ⤳ #PCDATA`` in the reachability lookup table.

    Accepts a :class:`~repro.core.pv.PVChecker` (reusing its analysis) or a
    bare DTD.
    """
    if isinstance(checker_or_dtd, PVChecker):
        analysis = checker_or_dtd.analysis
    else:
        from repro.dtd.analysis import analyze

        analysis = analyze(checker_or_dtd)
    return analysis.lookup(element, PCDATA)


class IncrementalChecker:
    """Per-operation potential-validity guard over one DTD.

    All methods are *pure queries*: they inspect the proposed operation
    against the current tree without mutating it, so an editor can ask
    first and apply after.
    """

    def __init__(self, dtd: DTD, *, compiled=None) -> None:
        self.dtd = dtd
        #: ``compiled`` is an optional pre-fetched
        #: :class:`~repro.service.compiled.CompiledSchema`; without one the
        #: checker resolves the DTD through the default schema registry.
        self.checker = PVChecker(dtd, compiled=compiled)

    # -- character data ------------------------------------------------------

    def check_text_update(self, node: XmlElement, child_index: int) -> bool:
        """Updating an existing text node: always fine (Theorem 2). O(1)."""
        del node, child_index
        return True

    def check_text_delete(self, node: XmlElement, child_index: int) -> bool:
        """Deleting character data: a content deletion, closed (Theorem 2)."""
        del node, child_index
        return True

    def check_text_insert_fast(self, parent: XmlElement) -> bool:
        """The paper's O(1) Proposition 3 rule (reachability lookup only)."""
        return prop3_char_insert_ok(self.checker, parent.name)

    def check_text_insert(self, parent: XmlElement, child_index: int) -> bool:
        """Exact check: may a new text node be inserted at *child_index*?

        O(1) when *parent* has mixed/ANY content (text is legal at every
        slot).  Otherwise the inserted sigma must be absorbable at its
        position, which requires one ECPV run over the parent's children —
        still local, but linear in the child count rather than O(1); this
        is the precise cost of making Proposition 3 positional.
        """
        decl = self.dtd.get(parent.name)
        if decl is None:
            return False
        if decl.allows_pcdata_directly():
            return True
        if not self.checker.analysis.can_embed(parent.name, PCDATA):
            return False
        # Inserting next to existing character data extends that run: after
        # the Delta_T collapse it is indistinguishable from a text update,
        # which is always safe (Theorem 2).
        for neighbour in (child_index - 1, child_index):
            if 0 <= neighbour < len(parent.children):
                node = parent.children[neighbour]
                if isinstance(node, XmlText) and node.text:
                    return True
        # The boundary indexes the whole sequence: with empty text nodes
        # at the insertion point, Delta_T of the children before it plus
        # Delta_T of those after it is not that sequence.
        symbols = content_symbols(parent)
        boundary = len(content_symbols(parent, 0, child_index))
        with_sigma = symbols[:boundary] + [SIGMA] + symbols[boundary:]
        return self.checker.check_content(parent.name, with_sigma)

    # -- markup ------------------------------------------------------------------

    def check_markup_delete(self, parent: XmlElement, child: XmlElement) -> bool:
        """Unwrapping *child* into *parent*: closed under PV (Theorem 2)."""
        del parent, child
        return True

    def check_markup_insert(
        self, parent: XmlElement, start: int, end: int, name: str
    ) -> bool:
        """Section 4's two-ECPV check for wrapping ``children[start:end)``.

        Check 1 — the new node: the wrapped slice must be a potentially
        valid content of ``<name>``.  Check 2 — the parent: its child
        sequence with the slice replaced by ``name`` must remain potentially
        valid content of the parent.
        """
        if name not in self.dtd:
            return False
        inner = content_symbols(parent, start, end)
        if not self.checker.check_content(name, inner):
            return False
        # The new element ends any character-data run, so the parent's
        # sequence is the two sides' Delta_T around it.
        outer = (
            content_symbols(parent, 0, start) + [name] + content_symbols(parent, end)
        )
        return self.checker.check_content(parent.name, outer)

