"""The table-driven verdict kernel and its native-build seam.

The kernel is the fourth (and fastest) backend of the exactness ladder:
the merged-GSS semantics of :class:`~repro.core.machine.PVMachine`
recompiled over the dense integer tables of :mod:`repro.core.tables`.
It is exact and unbounded for every DTD class — the differential suite
pins ``kernel ≡ machine ≡ earley`` on the full random-DTD corpus.

The document walk steps :class:`KernelState` objects, the kernel's
configurations interned once per schema: a child is one
``state.next.get(sym)``, and only a miss runs :func:`advance`, one
machine round over the decoded configuration.

Native build seam
-----------------
The hot loop lives in :mod:`repro.core._kernel_impl`, written to compile
cleanly with Cython.  ``tools/build_native_kernel.py`` (run by the CI
kernel job; never required locally) compiles a copy of that module as
``repro.core._kernel_native`` and drops the extension into this package.
This module imports the native build when present and silently falls
back to the pure-python implementation otherwise, so the kernel backend
works — at full exactness, just without the extra constant factor — on
a bare checkout with no compiler and no third-party packages.  Set
``REPRO_KERNEL_PURE=1`` to force the fallback even when the extension
is installed (the CI job uses this to prove both paths agree).
"""

from __future__ import annotations

import os

from repro.dtd.model import DTD

__all__ = [
    "KernelMachine",
    "KernelState",
    "advance",
    "initial_state",
    "kernel_machine_for_dtd",
    "NATIVE",
    "IMPLEMENTATION",
    "EMISSIONS_LIMIT",
    "EMISSIONS_BYTES_LIMIT",
    "STATE_NODE_LIMIT",
]

if os.environ.get("REPRO_KERNEL_PURE"):
    from repro.core import _kernel_impl as _impl

    NATIVE = False
else:
    try:
        from repro.core import _kernel_native as _impl  # type: ignore[attr-defined]

        NATIVE = True
    except ImportError:
        from repro.core import _kernel_impl as _impl

        NATIVE = False

#: "native" when the compiled extension is live, else "pure".
IMPLEMENTATION: str = "native" if NATIVE else "pure"

KernelMachine = _impl.KernelMachine
KernelState = _impl.KernelState
advance = _impl.advance
initial_state = _impl.initial_state

#: The bounds on each schema's shared ``emissions`` memo: entries, and
#: bytes charged.
EMISSIONS_LIMIT: int = _impl.EMISSIONS_LIMIT
EMISSIONS_BYTES_LIMIT: int = _impl.EMISSIONS_BYTES_LIMIT

#: Most GSS nodes an interned configuration may hold.
STATE_NODE_LIMIT: int = _impl.STATE_NODE_LIMIT


def kernel_machine_for_dtd(dtd: DTD, element: str | None = None) -> "KernelMachine":
    """A :class:`KernelMachine` straight from a DTD (tests/examples).

    Production paths should go through a
    :class:`~repro.service.compiled.CompiledSchema` instead, whose
    ``tables`` property carries the compiled tables inside the pickled
    artifact.
    """
    from repro.core.dag import build_dag
    from repro.core.tables import compile_tables

    tables = compile_tables(build_dag(dtd))
    return KernelMachine(tables, element if element is not None else dtd.root)

