"""No code runs under a raised recursion limit.

Completion, the minimal witness, the exact machine and Figure 5 keep
their per-level state on explicit stacks, so importing :mod:`repro`
leaves the interpreter's recursion limit alone, and every backend answers
inputs nested far deeper than that limit.  Each pin runs in a fresh
interpreter whose limit is set well below its input's depth after the
import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: A required chain ``e0 (e1)``, ..., ``e299 (#PCDATA)`` and a document
#: 2,000 deep, checked under a limit of 200 frames.
PRELUDE = """
import sys
from repro import PVChecker, complete_document, minimal_instance, parse_dtd, parse_xml
from repro.validity.validator import DTDValidator
from repro.xmlmodel.serialize import to_xml

CHAIN = parse_dtd(
    "".join(f"<!ELEMENT e{i} (e{i + 1})>" for i in range(299))
    + "<!ELEMENT e299 (#PCDATA)>"
)
DEEP = parse_dtd("<!ELEMENT r (x*)><!ELEMENT x (x*)>")
DEEP_DOC = "<r>" + "<x>" * 2000 + "</x>" * 2000 + "</r>"
sys.setrecursionlimit(200)
"""


def _run(script: str) -> list[str]:
    """Run *script* in a fresh interpreter; return its output's words."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.split()


def test_importing_repro_leaves_the_recursion_limit_alone():
    before, after = _run(
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import repro, repro.cli, repro.server\n"
        "print(before, sys.getrecursionlimit())\n"
    )
    assert before == after


@pytest.mark.parametrize("algorithm", ["kernel", "machine", "figure5", "earley"])
def test_every_backend_answers_past_the_limit(algorithm):
    assert _run(
        PRELUDE
        + "for dtd, text in ((CHAIN, '<e0>text</e0>'), (DEEP, DEEP_DOC)):\n"
        + f"    checker = PVChecker(dtd, algorithm={algorithm!r})\n"
        + "    print(checker.check_text(text).potentially_valid)\n"
    ) == ["True", "True"]


def test_the_minimal_witness_is_built_past_the_limit():
    chain = "".join(f"<e{i}>" for i in range(300)) + "".join(
        f"</e{i}>" for i in reversed(range(300))
    )
    assert _run(PRELUDE + "print(to_xml(minimal_instance(CHAIN)))\n") == [chain]


def test_completion_runs_past_the_limit():
    assert _run(
        PRELUDE
        + "for dtd, text in ((CHAIN, '<e0>text</e0>'), (DEEP, DEEP_DOC)):\n"
        + "    result = complete_document(dtd, parse_xml(text))\n"
        + "    print(result.inserted, DTDValidator(dtd).is_valid(result.document))\n"
    ) == ["299", "True", "0", "True"]
