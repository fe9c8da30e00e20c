"""The one-time schema compilation artifact.

A :class:`CompiledSchema` bundles everything any checking backend derives
from a DTD — the reachability/classification analysis (Definition 5-8),
the Section 4.2 DAG model consumed by the exact :class:`PVMachine` and the
Figure-5 recognizer, the dense integer tables consumed by the kernel
backend, and, each built on first use, the coarse summary the ring
client's filter runs and the per-element content grammar of Section 3.3
that only the Earley backend needs.  Once built, verdicts never touch DTD
text again; that is the paper's amortization argument made into an
object.

Identity is a **content hash** (:func:`schema_fingerprint`): the SHA-256
of the canonical serialization plus the designated root.  Two DTD sources
that differ only in formatting, comments or entity sugar parse to equal
models, serialize identically, and therefore share one artifact — the
property the registry's cache key relies on.

The artifact is immutable after construction (the lazy members are
memoized, never rebound to different values) and **picklable**, so a
``multiprocessing`` pool can ship it to workers once at startup.  The
pickle carries the coarse summary once it has been built and drops the
Earley members: they are derived data and each worker rebuilds them on
first use only if its backend needs them.

Wire format
-----------
The ring's ``get-artifact``/``put-artifact`` hand-off ships an artifact
as :func:`encode_artifact` bytes: a one-line versioned ASCII header
followed by the pickle payload::

    repro-pv-artifact 3\n
    <pickle bytes of the CompiledSchema>

:func:`decode_artifact` accepts exactly :data:`ARTIFACT_FORMAT_VERSION`
and checks the embedded fingerprint, so a wrong magic, another version,
a garbled payload or a mislabeled artifact is rejected, never seeded.
"""

from __future__ import annotations

import hashlib
import pickle
from time import perf_counter

from repro.core.coarse import CoarseSummary, compile_coarse
from repro.core.dag import DtdDag, build_dag
from repro.core.tables import CompiledTables, compile_tables
from repro.dtd.analysis import DTDAnalysis, DTDClass, analyze
from repro.dtd.model import DTD
from repro.dtd.serialize import dtd_to_text
from repro.grammar.build import build_content_cfg
from repro.grammar.earley import EarleyRecognizer

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_FORMAT_VERSION",
    "CompiledSchema",
    "schema_fingerprint",
    "compile_schema",
    "clear_compile_caches",
    "encode_artifact",
    "decode_artifact",
]

#: First header token of every encoded artifact.
ARTIFACT_MAGIC = "repro-pv-artifact"

#: The one version :func:`encode_artifact` writes and
#: :func:`decode_artifact` accepts.  Bump when the pickled layout changes.
ARTIFACT_FORMAT_VERSION = 3

_HEADER = f"{ARTIFACT_MAGIC} {ARTIFACT_FORMAT_VERSION}\n".encode("ascii")


def schema_fingerprint(dtd: DTD) -> str:
    """Content hash identifying *dtd* up to canonical serialization.

    The hash covers the declarations (in order) and the designated root —
    everything potential validity depends on — and deliberately excludes
    the cosmetic ``name``.  Equivalent serializations of the same DTD
    (whitespace, formatting) produce equal models and thus equal hashes.
    """
    canonical = f"root={dtd.root}\n{dtd_to_text(dtd)}"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CompiledSchema:
    """Everything derived from one DTD, compiled once.

    Attributes
    ----------
    dtd:
        The source model.
    fingerprint:
        :func:`schema_fingerprint` of the source — the registry cache key.
    analysis:
        Reachability table, productivity, recursion class (Defs 5-8).
    dag:
        ``DAG_T`` with both the flattened and the exact position tables.
    tables:
        The kernel backend's dense integer tables
        (:class:`~repro.core.tables.CompiledTables`), built by
        :func:`compile_schema` and carried inside the pickle.
    coarse:
        The coarse summary (:class:`~repro.core.coarse.CoarseSummary`)
        the ring client's filter runs.  Built on first read, since only
        that filter reads it, and carried inside the pickle once built.
    compile_seconds:
        Wall time the compilation took (feeds registry statistics and the
        E10 benchmark's amortization table).
    """

    __slots__ = (
        "dtd",
        "fingerprint",
        "analysis",
        "dag",
        "compile_seconds",
        "tables",
        "_coarse",
        "_content_cfg",
        "_earley",
    )

    def __init__(
        self,
        dtd: DTD,
        fingerprint: str,
        analysis: DTDAnalysis,
        dag: DtdDag,
        tables: CompiledTables,
        compile_seconds: float = 0.0,
        coarse: CoarseSummary | None = None,
    ) -> None:
        self.dtd = dtd
        self.fingerprint = fingerprint
        self.analysis = analysis
        self.dag = dag
        self.tables = tables
        self.compile_seconds = compile_seconds
        self._coarse = coarse
        self._content_cfg = None
        self._earley: EarleyRecognizer | None = None

    # -- derived members ---------------------------------------------------

    @property
    def is_pv_strong(self) -> bool:
        return self.analysis.dtd_class is DTDClass.PV_STRONG_RECURSIVE

    def content_cfg(self):
        """The Section 3.3 per-element content grammar (built on demand)."""
        if self._content_cfg is None:
            self._content_cfg = build_content_cfg(self.dtd)
        return self._content_cfg

    def earley(self) -> EarleyRecognizer:
        """A shared Earley recognizer over :meth:`content_cfg`."""
        if self._earley is None:
            self._earley = EarleyRecognizer(self.content_cfg())
        return self._earley

    @property
    def coarse(self) -> CoarseSummary:
        """The coarse summary, built on first read."""
        if self._coarse is None:
            self._coarse = compile_coarse(self.dag)
        return self._coarse

    @property
    def has_coarse(self) -> bool:
        """Whether the coarse summary is present (no rebuild needed)."""
        return self._coarse is not None

    def checker(self, algorithm: str = "machine"):
        """A :class:`~repro.core.pv.PVChecker` backed by this artifact."""
        from repro.core.pv import PVChecker

        return PVChecker(self.dtd, algorithm=algorithm, compiled=self)  # type: ignore[arg-type]

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        return {
            "dtd": self.dtd,
            "fingerprint": self.fingerprint,
            "analysis": self.analysis,
            "dag": self.dag,
            "compile_seconds": self.compile_seconds,
            "tables": self.tables,
            "coarse": self._coarse,
        }

    def __setstate__(self, state) -> None:
        self.dtd = state["dtd"]
        self.fingerprint = state["fingerprint"]
        self.analysis = state["analysis"]
        self.dag = state["dag"]
        self.compile_seconds = state["compile_seconds"]
        self.tables = state["tables"]
        # None until the coarse summary is first read; built lazily then.
        self._coarse = state["coarse"]
        self._content_cfg = None
        self._earley = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledSchema({self.dtd.name!r}, root={self.dtd.root!r}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


def compile_schema(dtd: DTD, fingerprint: str | None = None) -> CompiledSchema:
    """Compile *dtd* into a fresh :class:`CompiledSchema`.

    Builds ``DAG_T`` directly (no memoization) so the reported
    ``compile_seconds`` is the honest one-time cost; callers wanting
    sharing go through :class:`~repro.service.registry.SchemaRegistry`,
    which *is* the cache.
    """
    started = perf_counter()
    dag = DtdDag(dtd)
    tables = compile_tables(dag)
    elapsed = perf_counter() - started
    return CompiledSchema(
        dtd=dtd,
        fingerprint=fingerprint or schema_fingerprint(dtd),
        analysis=dag.analysis,
        dag=dag,
        tables=tables,
        compile_seconds=elapsed,
    )


def clear_compile_caches() -> None:
    """Drop every process-wide memoized compilation product.

    Clears the ``analyze``/``build_dag`` LRU caches (and nothing else).
    Used by cold-start benchmarks so a "cold" arm really recompiles, and
    by long-lived services that want to bound memory after schema churn.
    """
    analyze.cache_clear()
    build_dag.cache_clear()


def encode_artifact(schema: CompiledSchema) -> bytes:
    """*schema* in the hand-off's self-describing bytes (header + pickle)."""
    return _HEADER + pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL)


def decode_artifact(blob: bytes, fingerprint: str) -> CompiledSchema | None:
    """Decode :func:`encode_artifact` bytes, or ``None`` on any defect.

    Every defect — missing or bad header, any version but
    :data:`ARTIFACT_FORMAT_VERSION`, truncated or garbled pickle, an
    embedded fingerprint that does not match the expected one — yields
    ``None``, never an exception; the server's ``put-artifact`` op turns
    it into a structured ``bad-artifact`` error.
    """
    if not blob.startswith(_HEADER):
        return None
    try:
        schema = pickle.loads(blob[len(_HEADER) :])
    except Exception:
        # A truncated or garbled payload can raise nearly anything out
        # of the unpickler (EOFError, UnpicklingError, AttributeError,
        # ValueError, ...); every such defect is just a bad blob.
        return None
    if not isinstance(schema, CompiledSchema) or schema.fingerprint != fingerprint:
        return None
    return schema
