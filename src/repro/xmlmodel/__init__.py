"""XML substrate: a lightweight DOM, parser, serializer and the paper's operators.

Built from scratch so the reproduction controls exactly the behaviours
the paper relies on.  The one piece of stdlib XML machinery it uses is
expat, and the scanner hands expat only texts it reads as the reference
does:

* :mod:`repro.xmlmodel.tree` — mutable element/text tree with the
  structural edit operations of the editorial process (wrap a contiguous
  child range in a new element, unwrap an element, text edits),
* :mod:`repro.xmlmodel.fastlex` / :mod:`repro.xmlmodel.parser` —
  well-formedness scanning (stdlib expat on a fast path, a regex loop
  otherwise) and parsing (the paper's "XML string"), with
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
