"""The one bounded least-recently-used map behind every cache.

Past ``maxsize`` entries the least recently used one goes first, and a
hit refreshes its entry.  An :class:`LRU` is not thread-safe: a cache
that threads share holds its owner's lock around every call, together
with the compound update that goes with it (counting a hit, checking a
version).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["LRU"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")
_MISSING = object()


class LRU(Generic[K, V]):
    """A map of at most *maxsize* entries, evicting the least recent."""

    __slots__ = ("maxsize", "_entries")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K, default: V | None = None) -> V | None:
        """The value for *key*, made most recent, or *default*."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._entries.move_to_end(key)
        return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> bool:
        """Store *value* as most recent; True when an entry was evicted."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        """Membership, without refreshing the entry."""
        return key in self._entries

    def values(self) -> list[V]:
        """A snapshot of the values, least recent first."""
        return list(self._entries.values())

    def clear(self) -> None:
        self._entries.clear()
