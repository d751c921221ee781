"""Tests for the bounded LRU used by the hot memoisation caches."""

import pytest

from repro.core.formula import Literal, disj, lit
from repro.core.lru import LruCache
from repro.core.meta import BackwardMetaAnalysis
from repro.lang.ast import Observe
from tests.toys import StateFact, ToyTheory


class TestLruCache:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_get_put_roundtrip(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_counts_hits_and_misses(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_evicts_one_cold_entry_not_everything(self):
        cache = LruCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.put("d", "D")  # overflows: evicts "a" only
        assert "a" not in cache
        assert all(k in cache for k in "bcd")
        assert len(cache) == 3

    def test_lookup_refreshes_recency(self):
        cache = LruCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")  # "a" is now hottest; "b" is coldest
        cache.put("d", "D")
        assert "a" in cache
        assert "b" not in cache

    def test_cached_none_is_distinguishable_from_absent(self):
        sentinel = object()
        cache = LruCache(3)
        cache.put("unsat", None)
        assert cache.get("unsat", sentinel) is None
        assert cache.get("ghost", sentinel) is sentinel


class SwapMeta(BackwardMetaAnalysis):
    """``wp(state(x)) = state(x) | state(label)``, counting derivations."""

    def __init__(self, bound=None):
        self.theory = ToyTheory()
        self.derived = 0
        if bound is not None:
            self.WP_CACHE_SIZE = bound

    def wp_primitive(self, command, prim):
        self.derived += 1
        return disj(lit(prim), lit(StateFact(command.label)))


class TestWpMemoEviction:
    """The wp memo — the LRU left on the backward pass, holding each
    wp formula and its lowered mask DNFs — must degrade gracefully when
    its working set crosses the bound (no clear-all thrashing)."""

    def test_bound_evicts_incrementally(self):
        meta = SwapMeta(bound=8)
        commands = [Observe(f"c{i}") for i in range(12)]
        for command in commands:
            meta.wp_cached(command, StateFact("x"))
        cache = meta._wp_cache
        assert len(cache) == 8
        # The most recent entries survived; the oldest were evicted one
        # at a time.
        assert commands[-1] in cache
        assert commands[0] not in cache
        assert meta.derived == 12

    def test_memoised_result_matches_direct(self):
        meta = SwapMeta()
        command, prim = Observe("c"), StateFact("x")
        universe = meta.theory.universe()
        assert meta.wp_cached(command, prim) == meta.wp_primitive(command, prim)
        # The lowered DNFs of both polarities come from the memoised
        # formula and stay in the same entry.
        positive = universe.bit_of(Literal(prim, True))
        negative = universe.bit_of(Literal(prim, False))
        factors = meta.wp_factors(command, 1 << positive | 1 << negative, None)
        assert meta.derived == 2  # one memoised, one direct call
        assert meta.wp_hits >= 2 and meta.wp_misses == 1
        assert len(factors[positive]) == 2 and len(factors[negative]) == 1
        again = meta.wp_factors(command, 1 << positive, None)
        assert again[positive] is factors[positive]
        assert meta.derived == 2
