"""Unit tests for the recursive/unified ORAM accounting model."""

import pytest

from repro.oram.recursion import PosMapHierarchy


def make_hierarchy(hierarchies=4, entries=32, cache=8):
    return PosMapHierarchy(hierarchies, entries, cache)


class TestWalk:
    def test_first_lookup_misses_everything(self):
        h = make_hierarchy()
        # Cold cache: all three PosMap levels must be fetched.
        assert h.lookup(0) == 3

    def test_second_lookup_same_block_hits(self):
        h = make_hierarchy()
        h.lookup(0)
        assert h.lookup(1) == 0  # same level-1 PosMap block (entries=32)

    def test_neighbor_posmap_block_partial_walk(self):
        h = make_hierarchy()
        h.lookup(0)
        # Address 32 needs a different level-1 block, but its level-2
        # block (covering addresses 0..1023) is cached.
        assert h.lookup(32) == 1

    def test_single_hierarchy_never_walks(self):
        h = make_hierarchy(hierarchies=1)
        assert h.lookup(123) == 0
        assert h.cached_keys() == []  # no PosMap block was brought on chip

    def test_rejects_zero_hierarchies(self):
        with pytest.raises(ValueError):
            PosMapHierarchy(0, 32, 8)

    def test_disabled_cache_always_walks_fully(self):
        h = make_hierarchy(hierarchies=4, cache=0)
        assert h.lookup(0) == 3
        assert h.lookup(0) == 3  # nothing was cached
        assert h.hit_rate() == 0.0


class TestCache:
    def test_lru_eviction(self):
        h = make_hierarchy(hierarchies=2, entries=4, cache=2)
        h.lookup(0)   # caches (1, 0)
        h.lookup(4)   # caches (1, 1)
        h.lookup(8)   # caches (1, 2), evicts (1, 0)
        assert h.lookup(0) == 1  # miss again

    def test_lru_refresh_on_hit(self):
        h = make_hierarchy(hierarchies=2, entries=4, cache=2)
        h.lookup(0)
        h.lookup(4)
        h.lookup(0)   # refresh (1, 0)
        h.lookup(8)   # should evict (1, 1), not (1, 0)
        assert h.lookup(0) == 0
        assert h.lookup(4) == 1


class TestStats:
    def test_hit_rate_and_average(self):
        h = make_hierarchy()
        extras = [h.lookup(0), h.lookup(1)]
        assert extras == [3, 0]
        assert h.lookups == 2
        assert h.hit_rate() == pytest.approx(0.5)
        assert sum(extras) / h.lookups == pytest.approx(1.5)

    def test_empty_stats(self):
        h = make_hierarchy()
        assert h.hit_rate() == 0.0
        assert h.lookups == h.cache_hits == 0
