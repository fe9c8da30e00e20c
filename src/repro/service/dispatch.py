"""The one text→verdict pipeline, with an auditable decision log.

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

:meth:`BackendDispatcher.check_text` is the only code that turns document
text into a served verdict: the server (on its threads), the batch
checker (inline and pool workers) and ``repro check`` all call it.
``auto`` resolves to the kernel; an explicit algorithm runs through
:meth:`~repro.core.pv.PVChecker.check_text` too.  Every backend checks
off the scanner's events in the one walk of :mod:`repro.core.stream`,
so no tree is built.  Repeats are served from a
:class:`~repro.service.cache.VerdictCache` keyed by ``(fingerprint,
digest, resolved backend)``, so ``auto`` and ``kernel`` share entries.

Every ``auto`` resolution is recorded as a :class:`DispatchDecision` in a
bounded log, and ``audit_every=N`` routes a deterministic 1-in-N slice to
the Earley reference to cross-check the kernel in production.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from time import perf_counter

from repro.core.pv import Algorithm, PVChecker, PVVerdict
from repro.dtd.model import DTD
from repro.errors import ReproError
from repro.service.cache import VerdictCache
from repro.service.compiled import CompiledSchema
from repro.service.registry import DEFAULT_REGISTRY, SchemaRegistry
from repro.xmlmodel.tree import XmlDocument, XmlElement

__all__ = [
    "AUTO_BACKEND",
    "BackendInfo",
    "BACKENDS",
    "DispatchDecision",
    "DispatchedVerdict",
    "TextVerdict",
    "BackendDispatcher",
]

#: What ``auto`` resolves to outside the audit slice.
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
    auto:
        Whether ``auto`` ever runs it (the kernel, or the audit slice).
    summary:
        One line of what the backend is.
    """

    name: str
    exactness: str
    auto: bool
    summary: str


#: Every verdict tier, fastest exact first.  ``docs/BACKENDS.md`` renders
#: this table; ``tests/test_docs.py`` fails if the two drift apart.
BACKENDS: tuple[BackendInfo, ...] = (
    BackendInfo(
        name="kernel",
        exactness="exact",
        auto=True,
        summary="merged-GSS semantics over dense integer tables and bitmasks",
    ),
    BackendInfo(
        name="machine",
        exactness="exact",
        auto=False,
        summary="the exact GSS machine over object graphs (semantics reference)",
    ),
    BackendInfo(
        name="figure5",
        exactness="depth-bounded",
        auto=False,
        summary="the paper's greedy Figure 5 recognizer (smallest per-node cost)",
    ),
    BackendInfo(
        name="earley",
        exactness="exact",
        auto=True,
        summary="the Section 3.3 content-grammar Earley reference (audit tier)",
    ),
    BackendInfo(
        name="naive",
        exactness="bounded-oracle",
        auto=False,
        summary="brute-force Ext(w, T) search straight from Definitions 2-3",
    ),
)


@dataclass(frozen=True)
class DispatchDecision:
    """One recorded ``auto`` resolution (the audit-log entry)."""

    sequence: int
    algorithm: Algorithm
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"#{self.sequence} -> {self.algorithm}: {self.reason}"


@dataclass(frozen=True)
class DispatchedVerdict:
    """A verdict over a parsed tree, bundled with the decision behind it."""

    verdict: PVVerdict
    decision: DispatchDecision

    def __bool__(self) -> bool:
        return bool(self.verdict)


@dataclass(frozen=True)
class TextVerdict:
    """What :meth:`BackendDispatcher.check_text` served for one document.

    ``verdict`` is ``None`` exactly when ``error`` holds the message of a
    document that failed to parse (or to check).  ``algorithm`` is the
    backend that ran; ``reason`` is the decision's reason for ``auto``
    requests and ``None`` otherwise.  ``seconds`` is the text→verdict
    duration — ``0.0`` when ``cached``.
    """

    verdict: PVVerdict | None
    error: str | None
    algorithm: str
    cached: bool
    seconds: float
    reason: str | None = None


class BackendDispatcher:
    """Serves verdicts for one schema, remembering every ``auto`` choice.

    One checker per backend is built lazily over the shared compiled
    artifact, so checking never recompiles schema work; the dispatcher
    is exactly as warm as the registry entry behind it.
    """

    def __init__(
        self,
        schema: CompiledSchema | DTD,
        registry: SchemaRegistry | None = None,
        log_size: int = 256,
        verdict_cache: VerdictCache | int | None = None,
        audit_every: int = 0,
    ) -> None:
        if log_size < 0:
            raise ValueError("log_size must be >= 0")
        if audit_every < 0:
            raise ValueError("audit_every must be >= 0 (0 disables audits)")
        if isinstance(schema, DTD):
            schema = (registry or DEFAULT_REGISTRY).get(schema)
        self.schema = schema
        self.audit_every = audit_every
        if isinstance(verdict_cache, int):
            verdict_cache = VerdictCache(verdict_cache) if verdict_cache > 0 else None
        self.verdict_cache = verdict_cache
        self._checkers: dict[str, PVChecker] = {}
        self._log: deque[DispatchDecision] = deque(maxlen=log_size)
        self._counts: Counter[str] = Counter()
        self._sequence = 0
        # The server checks from multiple worker threads; the log,
        # counters, and checker cache are the only shared mutable state.
        self._lock = threading.Lock()

    def choose(self) -> DispatchDecision:
        """Resolve the next ``auto`` request and record the decision."""
        with self._lock:
            self._sequence += 1
            sequence = self._sequence
            if self.audit_every and sequence % self.audit_every == 0:
                decision = DispatchDecision(
                    sequence,
                    "earley",
                    f"scheduled audit (1 in {self.audit_every}) against the "
                    "Earley reference",
                )
            else:
                decision = DispatchDecision(
                    sequence, AUTO_BACKEND, "auto resolves to the kernel"
                )
            self._log.append(decision)
            self._counts[decision.algorithm] += 1
        return decision

    # -- checking -----------------------------------------------------------

    def check_text(self, text: str, algorithm: str = "auto") -> TextVerdict:
        """Document *text* to a served verdict: the one pipeline.

        ``auto`` resolves through :meth:`choose`; the verdict cache is
        consulted under ``(fingerprint, digest, resolved backend)``.  A
        document that fails to parse is answered (and cached) as an
        ``error``, never raised.
        """
        reason = None
        if algorithm == "auto":
            decision = self.choose()
            algorithm, reason = decision.algorithm, decision.reason
        cache = self.verdict_cache
        key = None
        if cache is not None:
            key = cache.key(self.schema.fingerprint, text, algorithm)
            hit = cache.get(key)
            if hit is not None:
                verdict, error = hit
                return TextVerdict(verdict, error, algorithm, True, 0.0, reason)
        started = perf_counter()
        try:
            verdict = self.checker_for(algorithm).check_text(text)  # type: ignore[arg-type]
            error = None
        except ReproError as failure:
            verdict, error = None, str(failure)
        seconds = perf_counter() - started
        if cache is not None:
            cache.put(key, (verdict, error))
        return TextVerdict(verdict, error, algorithm, False, seconds, reason)

    def check_document(
        self, document: XmlDocument | XmlElement
    ) -> DispatchedVerdict:
        """``auto`` over an already-parsed tree, for callers holding one."""
        decision = self.choose()
        verdict = self.checker_for(decision.algorithm).check_document(document)
        return DispatchedVerdict(verdict=verdict, decision=decision)

    def checker_for(self, algorithm: Algorithm) -> PVChecker:
        """The cached checker for *algorithm*."""
        with self._lock:
            checker = self._checkers.get(algorithm)
        if checker is None:
            checker = self.schema.checker(algorithm)
            with self._lock:
                checker = self._checkers.setdefault(algorithm, checker)
        return checker

    # -- the audit log ------------------------------------------------------

    @property
    def decisions(self) -> tuple[DispatchDecision, ...]:
        """The most recent decisions, oldest first (bounded by ``log_size``)."""
        with self._lock:
            return tuple(self._log)

    @property
    def counts(self) -> dict[str, int]:
        """Total ``auto`` decisions per backend over the dispatcher's life."""
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BackendDispatcher({self.schema.fingerprint[:12]}..., "
            f"counts={self.counts})"
        )
