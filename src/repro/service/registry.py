"""An LRU registry of compiled schemas.

:class:`SchemaRegistry` maps :func:`~repro.service.compiled.schema_fingerprint`
content hashes to shared :class:`~repro.service.compiled.CompiledSchema`
artifacts.  The registry is the amortization point of the whole library:
the process-wide :data:`DEFAULT_REGISTRY` backs every
:class:`~repro.core.pv.PVChecker` construction, so a service answering
verdicts for N documents against one schema compiles that schema exactly
once, regardless of how many checkers, sessions, or batch runs it creates.

The cache is a bounded :class:`~repro.lru.LRU` (recently *used*, not
recently inserted: a hit refreshes the entry) guarded by a lock, and it
keeps running statistics — hits, misses, evictions, and cumulative
compile seconds — that the batch CLI and the E10 benchmark report.

The registry is the one artifact cache: nothing is kept on disk, so a
restarted process compiles each schema again on its first request, from
the DTD text that request carries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.lru import LRU
from repro.service.compiled import CompiledSchema, compile_schema, schema_fingerprint

__all__ = [
    "RegistryStats",
    "SchemaRegistry",
    "DEFAULT_REGISTRY",
    "default_registry",
]


@dataclass(frozen=True)
class RegistryStats:
    """An immutable snapshot of one registry's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served warm, without a compile."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        """A JSON-ready rendering (the server's ``stats`` op uses this)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compile_seconds": self.compile_seconds,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.evictions} eviction(s), "
            f"{self.compile_seconds:.4f}s compiling, "
            f"{self.size}/{self.maxsize} cached"
        )


class SchemaRegistry:
    """A bounded, thread-safe LRU cache of compiled schemas.

    Parameters
    ----------
    maxsize:
        Maximum number of artifacts retained.  The least recently *used*
        artifact is evicted when a newly compiled one would exceed the
        bound.  Must be positive.
    """

    def __init__(self, maxsize: int = 64) -> None:
        self._entries: LRU[str, CompiledSchema] = LRU(maxsize)
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._compile_seconds = 0.0

    # -- lookup / compilation ----------------------------------------------

    def get(self, dtd: DTD) -> CompiledSchema:
        """The compiled artifact for *dtd*, compiling on first sight.

        The cache key is the content hash, so structurally equal DTDs —
        including independently parsed copies — share one artifact.
        """
        return self.resolve(dtd)[0]

    def resolve(self, dtd: DTD) -> tuple[CompiledSchema, str]:
        """:meth:`get`, plus how the artifact was found.

        The disposition is ``"hit"`` (held in memory) or ``"miss"``
        (compiled) — the counter this lookup moved, which a served reply
        reports as its ``registry`` field.
        """
        fingerprint = schema_fingerprint(dtd)
        with self._lock:
            cached = self._entries.get(fingerprint)
            if cached is not None:
                self._hits += 1
                return cached, "hit"
        # Compile outside the lock: it can be slow and must not serialize
        # unrelated lookups.  A racing compile of the same DTD wastes work
        # but stays correct (first insert wins).
        schema = compile_schema(dtd, fingerprint=fingerprint)
        return self._insert(fingerprint, schema, source="miss")

    def _insert(
        self, fingerprint: str, schema: CompiledSchema, source: str
    ) -> tuple[CompiledSchema, str]:
        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is not None:
                if source != "seed":
                    self._hits += 1
                return existing, "hit"
            if source == "miss":
                self._misses += 1
                self._compile_seconds += schema.compile_seconds
            if self._entries.put(fingerprint, schema):
                self._evictions += 1
        return schema, source

    def put(self, schema: CompiledSchema) -> CompiledSchema:
        """Seed an already-compiled artifact (counts neither hit nor miss).

        Used to hand a worker process the artifact its parent compiled, so
        subsequent lookups in the worker are honest warm hits.  Returns the
        retained artifact (an already-cached equal one wins).
        """
        return self._insert(schema.fingerprint, schema, source="seed")[0]

    def get_text(
        self, text: str, root: str | None = None, name: str = "dtd"
    ) -> CompiledSchema:
        """Parse DTD *text* and return its compiled artifact."""
        return self.get(parse_dtd(text, root=root, name=name))

    def lookup(self, fingerprint: str, count: bool = False) -> CompiledSchema | None:
        """Peek by content hash without compiling (refreshes LRU order).

        With ``count=True`` a *hit* is recorded in the statistics — the
        form serving paths use, where a fingerprint lookup is the
        request's cache access.  A miss is deliberately not counted: the
        caller falls back to :meth:`get`, which counts the compile;
        counting here too would record one request twice.
        """
        with self._lock:
            cached = self._entries.get(fingerprint)
            if cached is not None:
                if count:
                    self._hits += 1
            return cached

    # -- maintenance --------------------------------------------------------

    def clear(self) -> None:
        """Drop all cached artifacts (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def kernel_memo_entries(self) -> int:
        """Entries in the kernel ``emissions`` memos of the resident schemas."""
        with self._lock:
            schemas = self._entries.values()
        return sum(len(schema.tables.emissions) for schema in schemas)

    def __contains__(self, dtd: object) -> bool:
        if not isinstance(dtd, DTD):
            return False
        with self._lock:
            return schema_fingerprint(dtd) in self._entries

    @property
    def stats(self) -> RegistryStats:
        with self._lock:
            return RegistryStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                compile_seconds=self._compile_seconds,
                size=len(self._entries),
                maxsize=self.maxsize,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchemaRegistry({self.stats})"


#: The process-wide registry behind :class:`~repro.core.pv.PVChecker`.
DEFAULT_REGISTRY = SchemaRegistry()


def default_registry() -> SchemaRegistry:
    """The process-wide default registry (one compile per schema per process)."""
    return DEFAULT_REGISTRY
