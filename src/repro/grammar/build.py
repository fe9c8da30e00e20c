"""Construct the paper's grammars from a DTD.

Three constructions:

* :func:`build_validity_ecfg` — ``G_{T,r}`` (Section 3.1): recognizes
  ``delta_T(w)`` for *valid* documents ``w``.
* :func:`build_pv_ecfg` — ``G'_{T,r}`` (Section 3.2): adds the rules
  ``X -> X̂`` (one per element), so electing not to derive a tag pair mimics
  a *missing* tag; recognizes ``delta_T(w)`` for *potentially valid*
  documents (Theorem 1).
* :func:`build_content_cfg` — the per-element *content* grammar over the
  ``Delta_T`` alphabet (element names + sigma) used as the exact reference
  for Problem ECPV: token sequence ``s`` is a potentially valid content of
  ``a`` iff ``CONTENT:a`` derives ``s``.

Naming conventions (all prefixes collision-free with XML names and tag
terminals): ``N:x`` for the paper's ``X``, ``H:x`` for ``X̂``, ``N:#PCDATA``
for the ``PCDATA`` nonterminal, ``C:x``/``CONTENT:x`` for the content
grammar, ``S`` for the start symbol.
"""

from __future__ import annotations

from repro.dtd.ast import Choice, ContentNode, Name, Opt, PCData, Plus, Seq, Star, fold
from repro.dtd.model import DTD
from repro.grammar.cfg import Grammar
from repro.grammar.ecfg import ECFG, ecfg_to_cfg
from repro.xmlmodel.delta import SIGMA, end_tag, start_tag

__all__ = [
    "element_nonterminal",
    "hat_nonterminal",
    "content_nonterminal",
    "PCDATA_NONTERMINAL",
    "START_SYMBOL",
    "build_validity_ecfg",
    "build_pv_ecfg",
    "build_content_cfg",
]

#: The grammar start symbol ``S``.
START_SYMBOL = "S"

#: The nonterminal the paper calls ``PCDATA`` (its terminal sigma is
#: :data:`repro.xmlmodel.delta.SIGMA`).
PCDATA_NONTERMINAL = "N:#PCDATA"


def element_nonterminal(name: str) -> str:
    """The paper's ``X`` for element type ``x``."""
    return f"N:{name}"


def hat_nonterminal(name: str) -> str:
    """The paper's ``X̂`` for element type ``x``."""
    return f"H:{name}"


def content_nonterminal(name: str) -> str:
    """Start symbol for the ECPV content grammar of element ``x``."""
    return f"CONTENT:{name}"


def _token_nonterminal(name: str) -> str:
    """Content-grammar nonterminal covering one child token of type ``x``."""
    return f"C:{name}"


def _transcribe(node: ContentNode, name_map, pcdata_symbol: str) -> ContentNode:
    """Rewrite a content model into an ECFG regex over grammar symbols."""

    def up(current: ContentNode, results: list) -> ContentNode:
        if isinstance(current, Name):
            return Name(name_map(current.name))
        if isinstance(current, PCData):
            return Name(pcdata_symbol)
        if isinstance(current, (Seq, Choice)):
            return type(current)(tuple(results))
        if isinstance(current, (Star, Plus, Opt)):
            return type(current)(results[0])
        raise TypeError(f"unexpected content node {current!r}")

    return fold(node, up)  # type: ignore[return-value]


def _element_rules(dtd: DTD) -> dict[str, tuple[ContentNode | None, ...]]:
    """The shared core of ``G`` and ``G'``: S, PCDATA, X and X̂ rules."""
    rules: dict[str, tuple[ContentNode | None, ...]] = {
        START_SYMBOL: (Name(element_nonterminal(dtd.root)),),
        PCDATA_NONTERMINAL: (Name(SIGMA), None),
    }
    for decl in dtd:
        x = decl.name
        rules[element_nonterminal(x)] = (
            Seq(
                (
                    Name(start_tag(x)),
                    Name(hat_nonterminal(x)),
                    Name(end_tag(x)),
                )
            ),
        )
        regex = decl.content.regex(dtd)
        if regex is None:
            rules[hat_nonterminal(x)] = (None,)
        else:
            rules[hat_nonterminal(x)] = (
                _transcribe(regex, element_nonterminal, PCDATA_NONTERMINAL),
            )
    return rules


def build_validity_ecfg(dtd: DTD) -> ECFG:
    """The paper's ``G_{T,r}`` (Section 3.1, Example 3)."""
    return ECFG(START_SYMBOL, _element_rules(dtd))


def build_pv_ecfg(dtd: DTD) -> ECFG:
    """The paper's ``G'_{T,r}`` (Section 3.2): ``G`` plus ``X -> X̂`` rules."""
    rules = _element_rules(dtd)
    for decl in dtd:
        x = decl.name
        existing = rules[element_nonterminal(x)]
        rules[element_nonterminal(x)] = existing + (Name(hat_nonterminal(x)),)
    return ECFG(START_SYMBOL, rules)


def build_content_cfg(dtd: DTD) -> Grammar:
    """The per-element content grammar over the ``Delta_T`` alphabet.

    For every element ``x``:

    * ``CONTENT:x`` derives exactly the potentially valid child-token
      sequences of ``x`` (the language of ``X̂`` in ``G'`` projected onto
      the children alphabet),
    * ``C:x -> x | CONTENT:x`` covers one child slot of type ``x``: either
      the actual tag is present (token ``x``) or the tag is missing and the
      slot's content surfaces directly (``CONTENT:x``, which may be empty).

    Character data: ``C:#PCDATA -> #PCDATA | ε`` (a ``#PCDATA`` position
    may hold one collapsed text run or nothing).

    The returned grammar's default start symbol is ``CONTENT:<root>``;
    pass ``start=content_nonterminal(x)`` to the Earley recognizer to check
    any other element.
    """
    rules: dict[str, tuple[ContentNode | None, ...]] = {
        _token_nonterminal(SIGMA): (Name(SIGMA), None),
    }
    for decl in dtd:
        x = decl.name
        regex = decl.content.regex(dtd)
        if regex is None:
            rules[content_nonterminal(x)] = (None,)
        else:
            rules[content_nonterminal(x)] = (
                _transcribe(regex, _token_nonterminal, _token_nonterminal(SIGMA)),
            )
        rules[_token_nonterminal(x)] = (
            Name(x),
            Name(content_nonterminal(x)),
        )
    ecfg = ECFG(content_nonterminal(dtd.root), rules)
    return ecfg_to_cfg(ecfg)
