"""Tests for :class:`repro.lru.LRU`, the one bounded-cache eviction policy."""

from __future__ import annotations

import pytest

from repro.lru import LRU


def _filled(*keys: str, maxsize: int = 3) -> LRU:
    cache: LRU = LRU(maxsize)
    for key in keys:
        cache.put(key, key.upper())
    return cache


class TestLRU:
    def test_the_least_recently_used_entry_goes_first(self):
        cache = _filled("a", "b", "c")
        cache.put("d", "D")
        assert "a" not in cache
        cache.put("e", "E")
        assert "b" not in cache
        assert cache.values() == ["C", "D", "E"]

    def test_get_refreshes(self):
        cache = _filled("a", "b", "c")
        assert cache.get("a") == "A"
        cache.put("d", "D")
        assert "a" in cache and "b" not in cache
        assert cache.values() == ["C", "A", "D"]

    def test_get_of_an_absent_key_returns_the_default(self):
        cache = _filled("a")
        assert cache.get("z") is None
        assert cache.get("z", 0) == 0
        assert len(cache) == 1

    def test_put_on_a_present_key_refreshes_without_evicting(self):
        cache = _filled("a", "b", "c")
        assert cache.put("a", "A2") is False
        assert len(cache) == 3
        assert cache.values() == ["B", "C", "A2"]
        cache.put("d", "D")
        assert "b" not in cache and cache.get("a") == "A2"

    def test_put_returns_whether_it_evicted(self):
        cache: LRU = LRU(2)
        assert cache.put("a", 1) is False
        assert cache.put("b", 2) is False
        assert cache.put("c", 3) is True
        assert len(cache) == 2

    def test_membership_does_not_refresh(self):
        cache = _filled("a", "b", "c")
        assert "a" in cache
        cache.put("d", "D")
        assert "a" not in cache

    def test_clear_empties_the_cache(self):
        cache = _filled("a", "b")
        cache.clear()
        assert len(cache) == 0 and cache.values() == []
        assert cache.put("c", "C") is False

    @pytest.mark.parametrize("maxsize", [0, -1])
    def test_a_maxsize_below_one_is_rejected(self, maxsize):
        with pytest.raises(ValueError):
            LRU(maxsize)
