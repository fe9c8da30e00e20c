"""The paper's contribution: potential-validity checking.

* :mod:`repro.core.dag` — the Section 4.2 DAG model ``DAG_T``,
* :mod:`repro.core.recognizer` — the Figure 5 ``ECRecognizer`` algorithm,
  transcribed faithfully (greedy active-node set, cached sub-recognizers,
  depth countdown),
* :mod:`repro.core.machine` — ``PVMachine``, an exact recognizer for the
  same problem that tracks the full hypothesis set as a graph-structured
  stack; the semantics reference for the kernel,
* :mod:`repro.core.tables` / :mod:`repro.core.kernel` — the machine's
  automata compiled to dense integer tables with bitmask state sets, and
  ``KernelMachine`` running the same GSS semantics over them (with an
  optional native build), its configurations interned per schema as
  the ``KernelState``s the document walk steps; the library's production
  checker, selected with ``PVChecker(dtd, algorithm="kernel")``,
* :mod:`repro.core.pv` — Problem PV / Problem ECPV drivers over documents,
* :mod:`repro.core.stream` — the one document walk every backend runs,
  fed by the scanner's events or a tree's
  :func:`~repro.xmlmodel.tree.walk`,
* :mod:`repro.core.incremental` — update-time checks (Theorem 2,
  Proposition 3, the O(1) character-data rules, markup insertion as two
  ECPV calls),
* :mod:`repro.core.witness` — minimal valid instance synthesis,
* :mod:`repro.core.completion` — constructive completion: compute the tag
  insertions that turn a potentially valid document into a valid one
  (regenerates Figure 3),
* :mod:`repro.core.classify` — Definition 6-8 DTD classification reports,
* :mod:`repro.core.trampoline` — runs completion's derivation search and
  Figure 5's nested recognizers from an explicit stack.
"""

from repro.core.pv import PVChecker, PVVerdict
from repro.core.recognizer import ECRecognizer
from repro.core.machine import PVMachine
from repro.core.kernel import KernelMachine
from repro.core.tables import CompiledTables, compile_tables
from repro.core.classify import classify_dtd, ClassificationReport
from repro.core.witness import minimal_instance
from repro.core.completion import complete_document, CompletionError

__all__ = [
    "PVChecker",
    "PVVerdict",
    "ECRecognizer",
    "PVMachine",
    "KernelMachine",
    "CompiledTables",
    "compile_tables",
    "classify_dtd",
    "ClassificationReport",
    "minimal_instance",
    "complete_document",
    "CompletionError",
]
