"""repro — reproduction of "On Potential Validity of Document-Centric XML
Documents" (Iacob, Dekhtyar & Dekhtyar, ICDE 2006).

The public API in five lines:

>>> from repro import parse_dtd, parse_xml, PVChecker
>>> dtd = parse_dtd("<!ELEMENT a (b, c)> <!ELEMENT b EMPTY> <!ELEMENT c (#PCDATA)>")
>>> checker = PVChecker(dtd)
>>> checker.is_potentially_valid(parse_xml("<a><c>text</c></a>"))   # b missing: insertable
True
>>> checker.is_potentially_valid(parse_xml("<a><c>text</c><b></b></a>"))  # wrong order
False

Layer map (bottom-up):

* :mod:`repro.dtd` — DTD parsing, normalization (Cor 3.1), star-groups
  (Def 4 / Prop 1), reachability ``R_T`` + lookup table ``LT`` (Def 5),
  recursion classes (Defs 6-8), corpora.
* :mod:`repro.xmlmodel` — DOM, XML parsing, the ``delta_T``/``Delta_T``
  operators.
* :mod:`repro.grammar` — ``G_{T,r}``/``G'_{T,r}`` (Sec 3), Earley baseline,
  Glushkov automata.
* :mod:`repro.validity` — standard validation, ``D(T, r)``.
* :mod:`repro.core` — the paper's contribution: the DAG model (Sec 4.2),
  the Figure-5 ECRecognizer, the exact PVMachine, Problem PV/ECPV drivers,
  incremental update checks, witnesses, constructive completion.
* :mod:`repro.baselines` — Earley whole-document checking, naive
  ``Ext(w,T)`` search.
* :mod:`repro.editor` — a guarded document-centric editing session (the
  xTagger use case).
* :mod:`repro.workloads` — generators for documents, degradations and edit
  scripts used by tests and benchmarks.
* :mod:`repro.service` — the throughput layer: compiled-schema registry
  (compile a DTD once, share the artifact everywhere), parallel batch
  checking, and the one text→verdict function
  (:func:`~repro.service.dispatch.check_text`).
* :mod:`repro.server` — the asyncio NDJSON serving front (imported on
  demand; ``python -m repro serve``).
"""

from repro.config import CheckerConfig, DEFAULT_CONFIG, DEFAULT_DEPTH_BOUND
from repro.core.classify import ClassificationReport, classify_dtd
from repro.core.completion import CompletionError, CompletionResult, complete_document
from repro.core.incremental import IncrementalChecker, prop3_char_insert_ok
from repro.core.machine import PVMachine
from repro.core.pv import PVChecker, PVVerdict
from repro.core.recognizer import ECRecognizer
from repro.core.witness import minimal_instance
from repro.dtd.analysis import DTDClass, analyze
from repro.dtd.model import DTD, ElementDecl, PCDATA
from repro.dtd.parser import parse_dtd
from repro.dtd.serialize import dtd_to_text
from repro.service.batch import BatchChecker, BatchItem, BatchResult, check_batch
from repro.service.compiled import (
    CompiledSchema,
    compile_schema,
    schema_fingerprint,
)
from repro.service.dispatch import TextVerdict, check_text
from repro.service.registry import (
    DEFAULT_REGISTRY,
    RegistryStats,
    SchemaRegistry,
    default_registry,
)
from repro.errors import (
    DTDError,
    DTDSemanticError,
    DTDSyntaxError,
    EditRejected,
    PVError,
    ReproError,
    UnknownElementError,
    UnusableElementError,
    XmlError,
    XmlSyntaxError,
)
from repro.validity.validator import DTDValidator
from repro.xmlmodel.delta import SIGMA, content_symbols, delta_symbols
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import XmlDocument, XmlElement, XmlText

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "CheckerConfig",
    "DEFAULT_CONFIG",
    "DEFAULT_DEPTH_BOUND",
    # DTD layer
    "DTD",
    "ElementDecl",
    "PCDATA",
    "parse_dtd",
    "dtd_to_text",
    "analyze",
    "DTDClass",
    # XML layer
    "XmlDocument",
    "XmlElement",
    "XmlText",
    "parse_xml",
    "to_xml",
    "SIGMA",
    "content_symbols",
    "delta_symbols",
    # validation and PV checking
    "DTDValidator",
    "PVChecker",
    "PVVerdict",
    "PVMachine",
    "ECRecognizer",
    "IncrementalChecker",
    "prop3_char_insert_ok",
    "classify_dtd",
    "ClassificationReport",
    "minimal_instance",
    "complete_document",
    "CompletionResult",
    "CompletionError",
    # service layer
    "CompiledSchema",
    "compile_schema",
    "schema_fingerprint",
    "SchemaRegistry",
    "RegistryStats",
    "DEFAULT_REGISTRY",
    "default_registry",
    "BatchChecker",
    "BatchItem",
    "BatchResult",
    "check_batch",
    "check_text",
    "TextVerdict",
    # errors
    "ReproError",
    "DTDError",
    "DTDSyntaxError",
    "DTDSemanticError",
    "UnknownElementError",
    "UnusableElementError",
    "XmlError",
    "XmlSyntaxError",
    "PVError",
    "EditRejected",
]
