"""The one text→verdict function, and the backend contract it serves.

The checking backends trade constant factors for generality (the full
contract lives in ``docs/BACKENDS.md``, kept in lockstep with
:data:`BACKENDS` by a test):

* ``kernel`` — the machine's merged-GSS semantics over dense integer
  tables; exact for every DTD class with the smallest exact constant,
  and stepped per child as the scanner's events arrive,
* ``figure5`` — the paper's greedy recognizer; its verdict for PV-strong
  recursive DTDs is only "within depth D",
* ``machine`` — the exact GSS machine over object graphs; the semantics
  reference the kernel is differentially pinned against,
* ``earley`` — the Section 3.3 content-grammar reference; slow, used as a
  cross-check.

:func:`check_text` is the only code that turns document text into a
served verdict: the server (on its threads), the batch checker (inline
and pool workers), ``repro check`` and ``repro profile`` all call it with
the :class:`~repro.service.compiled.CompiledSchema` they hold.  ``auto``
resolves to :data:`AUTO_BACKEND`; every algorithm runs through
:meth:`~repro.core.pv.PVChecker.check_text`, which checks off the
scanner's events in the one walk of :mod:`repro.core.stream`, so no tree
is built.  Repeats are served from a
:class:`~repro.service.cache.VerdictCache` keyed by ``(fingerprint,
digest, resolved backend)``, so ``auto`` and ``kernel`` share entries.

A verdict is a pure function of that triple, so nothing else is kept
between documents: each call builds its checker over the artifact (a few
attribute reads), and no checker is cached on the artifact, where it
would form a reference cycle with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.core.pv import Algorithm, PVVerdict
from repro.errors import ReproError
from repro.service.cache import VerdictCache
from repro.service.compiled import CompiledSchema

__all__ = [
    "AUTO_BACKEND",
    "BackendInfo",
    "BACKENDS",
    "TextVerdict",
    "check_text",
]

#: What ``auto`` resolves to.
AUTO_BACKEND: Algorithm = "kernel"


@dataclass(frozen=True)
class BackendInfo:
    """One row of the backend contract (mirrored by ``docs/BACKENDS.md``).

    Attributes
    ----------
    name:
        The ``--algorithm`` token.
    exactness:
        What the verdict means: ``"exact"`` (Problem PV decided for every
        DTD class, no bound), ``"depth-bounded"`` (exact only up to the
        configured insertion depth; PV-strong recursive DTDs may need
        more), or ``"bounded-oracle"`` (the Definitions 2-3 brute-force
        search, only total for small bounds — a test oracle, not a
        serving backend).
    summary:
        One line of what the backend is.
    """

    name: str
    exactness: str
    summary: str


#: Every verdict tier, fastest exact first.  ``docs/BACKENDS.md`` renders
#: this table; ``tests/test_docs.py`` fails if the two drift apart.
BACKENDS: tuple[BackendInfo, ...] = (
    BackendInfo(
        name="kernel",
        exactness="exact",
        summary="merged-GSS semantics over dense integer tables and bitmasks",
    ),
    BackendInfo(
        name="machine",
        exactness="exact",
        summary="the exact GSS machine over object graphs (semantics reference)",
    ),
    BackendInfo(
        name="figure5",
        exactness="depth-bounded",
        summary="the paper's greedy Figure 5 recognizer (smallest per-node cost)",
    ),
    BackendInfo(
        name="earley",
        exactness="exact",
        summary="the Section 3.3 content-grammar Earley reference",
    ),
    BackendInfo(
        name="naive",
        exactness="bounded-oracle",
        summary="brute-force Ext(w, T) search straight from Definitions 2-3",
    ),
)


@dataclass(frozen=True)
class TextVerdict:
    """What :func:`check_text` served for one document.

    ``verdict`` is ``None`` exactly when ``error`` holds the message of a
    document that failed to parse (or to check).  ``algorithm`` is the
    backend that ran (``auto`` already resolved).  ``seconds`` is the
    text→verdict duration — ``0.0`` when ``cached``.
    """

    verdict: PVVerdict | None
    error: str | None
    algorithm: str
    cached: bool
    seconds: float


def check_text(
    schema: CompiledSchema,
    text: str,
    algorithm: str = "auto",
    cache: VerdictCache | None = None,
) -> TextVerdict:
    """Document *text* to a served verdict under *schema*: the one pipeline.

    ``auto`` resolves to :data:`AUTO_BACKEND`; *cache*, when given, is
    consulted under ``(fingerprint, digest, resolved backend)``.  A
    document that fails to parse is answered (and cached) as an
    ``error``, never raised.
    """
    if algorithm == "auto":
        algorithm = AUTO_BACKEND
    key = None
    if cache is not None:
        key = cache.key(schema.fingerprint, text, algorithm)
        hit = cache.get(key)
        if hit is not None:
            verdict, error = hit
            return TextVerdict(verdict, error, algorithm, True, 0.0)
    started = perf_counter()
    try:
        verdict = schema.checker(algorithm).check_text(text)
        error = None
    except ReproError as failure:
        verdict, error = None, str(failure)
    seconds = perf_counter() - started
    if cache is not None:
        cache.put(key, (verdict, error))
    return TextVerdict(verdict, error, algorithm, False, seconds)
