"""XML substrate: a lightweight DOM, parser, serializer and the paper's operators.

Built from scratch (no stdlib XML machinery) so the reproduction controls
exactly the behaviours the paper relies on:

* :mod:`repro.xmlmodel.tree` — mutable element/text tree with the
  structural edit operations of the editorial process (wrap a contiguous
  child range in a new element, unwrap an element, text edits),
* :mod:`repro.xmlmodel.fastlex` / :mod:`repro.xmlmodel.parser` —
  well-formedness scanning and parsing (the paper's "XML string"), with
  :mod:`repro.xmlmodel.lexer` as the scanner's reference,
* :mod:`repro.xmlmodel.serialize` — canonical text output,
* :mod:`repro.xmlmodel.delta` — the ``delta_T`` and ``Delta_T`` operators of
  Sections 3.1 and 4.
"""

from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlText
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.delta import (
    SIGMA,
    content_symbols,
    delta_symbols,
    delta_tokens,
)

__all__ = [
    "XmlDocument",
    "XmlElement",
    "XmlText",
    "parse_xml",
    "to_xml",
    "SIGMA",
    "content_symbols",
    "delta_symbols",
    "delta_tokens",
]
