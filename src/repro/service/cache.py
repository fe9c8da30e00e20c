"""The verdict memo cache: repeat documents answered in O(1).

Validation traffic repeats itself — editors re-check on every keystroke,
pipelines re-submit the same artifacts, ring clients retry.  A verdict is
a pure function of ``(schema, document bytes, backend)``, so a bounded
LRU over that key serves repeats without parsing a byte.

:class:`VerdictCache` is that LRU.  Keys are
``(schema_fingerprint, blake2b(doc_bytes), backend)`` — the fingerprint
pins the schema revision (a recompiled schema can never serve stale
verdicts), the 16-byte blake2b digest stands in for the document text,
and ``backend`` is the *resolved* backend, so an ``auto`` request and a
``kernel`` request for the same bytes share one entry.  The only caller
is :func:`repro.service.dispatch.check_text`; values are its
``(verdict, error)`` pairs, which the cache never inspects.

One instance is shared across threads (``ValidationServer`` consults it
from every connection); a single lock guards the :class:`~repro.lru.LRU`
and the hit/miss/eviction counters, which the server's ``stats`` and
metrics scrape both read.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Hashable

from repro.lru import LRU

__all__ = ["VerdictCache"]


class VerdictCache:
    """A thread-safe bounded LRU for verdicts keyed by content digest."""

    __slots__ = ("maxsize", "_entries", "_lock", "hits", "misses", "evictions")

    def __init__(self, maxsize: int) -> None:
        self._entries: LRU[Hashable, Any] = LRU(maxsize)
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def digest(text: str) -> bytes:
        """The 16-byte blake2b digest standing in for *text*.

        ``surrogatepass`` encodes a lone surrogate (a JSON ``\\ud800``
        escape decodes to one) instead of raising, and stays injective,
        so distinct texts keep distinct keys.
        """
        encoded = text.encode("utf-8", "surrogatepass")
        return hashlib.blake2b(encoded, digest_size=16).digest()

    @classmethod
    def key(cls, fingerprint: str, text: str, backend: str) -> Hashable:
        """The cache key for *text* checked by *backend* under *fingerprint*."""
        return (fingerprint, cls.digest(text), backend)

    def get(self, key: Hashable) -> Any | None:
        """The cached verdict, freshened to most-recent, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> bool:
        """Store *value*; returns True when an older entry was evicted."""
        with self._lock:
            evicted = self._entries.put(key, value)
            if evicted:
                self.evictions += 1
            return evicted

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> dict[str, int]:
        """Counters for the ``stats`` op and the metrics scrape."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }
