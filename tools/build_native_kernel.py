#!/usr/bin/env python
"""Build the optional native kernel extension.

The kernel backend's hot loop (``repro.core._kernel_impl``) is plain
python written to compile cleanly with Cython.  This tool produces the
compiled variant the import seam in ``repro.core.kernel`` prefers:

1. copy ``_kernel_impl.py`` to a scratch directory as
   ``_kernel_native.py``, with ``IMPLEMENTATION`` patched from
   ``"pure"`` to ``"native"`` (the only source difference, so the two
   modules are behaviorally identical by construction);
2. cythonize and compile it;
3. drop the built extension next to ``_kernel_impl.py`` in
   ``src/repro/core/``, where the seam finds it.

Requires Cython and a C compiler, which the runtime deliberately does
not: this is run by the CI ``kernel-native`` job (which installs
Cython for itself) and by developers who want the extra constant
factor locally.  It is **never** required — without the extension the
kernel backend runs the pure-python module with identical verdicts.

``--check`` verifies the result in a subprocess: the seam must report
``native``, and a pure-vs-native differential over a documents corpus
must agree verdict by verdict.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CORE = REPO / "src" / "repro" / "core"
IMPL = CORE / "_kernel_impl.py"

CHECK_SCRIPT = """
import os, random, subprocess, sys

from repro.core import kernel

assert kernel.NATIVE, "the seam did not pick up the native extension"
assert kernel.IMPLEMENTATION == "native", kernel.IMPLEMENTATION
assert kernel.KernelMachine.__module__ == "repro.core._kernel_native"
assert kernel.KernelState.__module__ == "repro.core._kernel_native"

# The document walk steps the seam's states, so it runs the native build.
from repro.core import stream
assert stream.advance is kernel.advance

# Pure vs native differential: same verdict on every document.
from repro.core.pv import PVChecker
from repro.dtd import catalog
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.serialize import to_xml

PROBE = (
    "import sys\\n"
    "from repro.core import kernel\\n"
    "from repro.core.pv import PVChecker\\n"
    "from repro.dtd import catalog\\n"
    "from repro.xmlmodel.parser import parse_xml\\n"
    "assert not kernel.NATIVE\\n"
    "checker = PVChecker(catalog.load(sys.argv[1]), algorithm='kernel')\\n"
    "verdicts = [\\n"
    "    checker.is_potentially_valid(parse_xml(text))\\n"
    "    for text in sys.stdin.read().split(chr(0)) if text\\n"
    "]\\n"
    "print(''.join('1' if verdict else '0' for verdict in verdicts))\\n"
)

for name in ("paper-figure1", "manuscript", "strong-chain"):
    dtd = catalog.load(name)
    rng = random.Random(15)
    generator = DocumentGenerator(dtd, seed=15)
    documents = []
    for document in generator.documents(4, target_nodes=24, max_depth=8):
        documents.append(document)
        documents.append(degrade(document, rng, fraction=0.5)[0])
    native_checker = PVChecker(dtd, algorithm="kernel")
    native = "".join(
        "1" if native_checker.is_potentially_valid(document) else "0"
        for document in documents
    )
    payload = chr(0).join(to_xml(document) for document in documents)
    pure = subprocess.run(
        [sys.executable, "-c", PROBE, name],
        input=payload, capture_output=True, text=True, check=True,
        env={**os.environ, "REPRO_KERNEL_PURE": "1"},
    ).stdout.strip()
    assert native == pure, (name, native, pure)

print("native kernel check ok")
"""


def clean() -> int:
    """Remove previously built extensions; returns how many were removed."""
    removed = 0
    for artifact in CORE.glob("_kernel_native.*"):
        artifact.unlink()
        removed += 1
    return removed


def build() -> Path:
    try:
        from Cython.Build import cythonize
        from setuptools import Extension
        from setuptools.dist import Distribution
    except ImportError as error:
        raise SystemExit(
            f"Cython/setuptools unavailable ({error}); the native kernel is "
            "optional — install Cython (`pip install cython`) to build it, "
            "or skip this tool and run the pure-python kernel."
        )

    text = IMPL.read_text()
    needle = 'IMPLEMENTATION = "pure"'
    if needle not in text:
        raise SystemExit(f"{IMPL} lost its {needle!r} marker; refusing to build")

    scratch = Path(tempfile.mkdtemp(prefix="repro-kernel-native-"))
    try:
        package_dir = scratch / "repro" / "core"
        package_dir.mkdir(parents=True)
        source = package_dir / "_kernel_native.py"
        source.write_text(
            text.replace(needle, 'IMPLEMENTATION = "native"', 1)
        )

        extensions = cythonize(
            [
                Extension(
                    "repro.core._kernel_native",
                    [str(source)],
                )
            ],
            language_level=3,
            build_dir=str(scratch / "cython"),
            quiet=True,
        )
        distribution = Distribution(
            {"name": "repro-kernel-native", "ext_modules": extensions}
        )
        command = distribution.get_command_obj("build_ext")
        command.build_lib = str(scratch / "lib")
        command.build_temp = str(scratch / "temp")
        command.ensure_finalized()
        command.run()

        built = next(
            (Path(command.build_lib) / "repro" / "core").glob("_kernel_native.*")
        )
        clean()
        target = CORE / built.name
        shutil.copy2(built, target)
        return target
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check() -> None:
    subprocess.run(
        [sys.executable, "-c", CHECK_SCRIPT],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        check=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="after building, verify the seam reports native and that "
        "pure and native verdicts agree on a documents corpus",
    )
    parser.add_argument(
        "--clean",
        action="store_true",
        help="remove any built extension and exit (back to pure python)",
    )
    args = parser.parse_args(argv)

    if args.clean:
        removed = clean()
        print(f"removed {removed} built extension(s)")
        return 0

    target = build()
    print(f"built {target.relative_to(REPO)}")
    if args.check:
        check()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
