"""LRU rules of one cache level.

A :class:`SetAssociativeCache` holds only its sets, counters and tag probe;
the rules that move lines (hit promote, fill with victim, dirty OR on
refill) are :class:`CacheHierarchy` events.  These cases pin each rule on
the level it is easiest to see in: the LLC, driven through
:meth:`CacheHierarchy.fill_prefetch` (an LLC-only fill) and
:meth:`CacheHierarchy.access`, with LLC victims read off what each fill
returns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_associative import SetAssociativeCache
from repro.config import CacheConfig

#: an L1 of 2 sets x 1 way: big enough to hold a line, too small to matter
TINY_L1 = CacheConfig(256, 1, 128)


def make_llc(capacity=2048, assoc=2, block=128):
    """A hierarchy whose LLC is the level under test."""
    return CacheHierarchy(TINY_L1, CacheConfig(capacity, assoc, block))


class TestBasics:
    def test_miss_then_hit(self):
        h = make_llc()
        assert h.access(5, False).level == "miss"
        h.fill_prefetch(5)
        assert h.access(5, False).level == "llc"
        assert h.llc.hits == 1 and h.llc.misses == 1

    def test_contains_no_lru_side_effect(self):
        h = make_llc(capacity=512, assoc=2)  # 2 sets, 2 ways
        h.fill_prefetch(0)
        h.fill_prefetch(2)  # same set as 0 (addr % 2 == 0)
        h.contains(0)  # probe must NOT refresh 0
        assert h.fill_prefetch(4) == (0, False)  # evicts LRU = 0
        assert not h.contains(0)
        assert h.contains(2)

    def test_lookup_refreshes_lru(self):
        h = make_llc(capacity=512, assoc=2)
        h.fill_prefetch(0)
        h.fill_prefetch(2)
        assert h.access(0, False).level == "llc"  # 0 becomes MRU
        assert h.fill_prefetch(4) == (2, False)

    def test_insert_returns_victim(self):
        h = make_llc(capacity=512, assoc=2)
        assert h.fill_prefetch(0) is None
        assert h.fill_prefetch(2) is None
        assert h.fill_prefetch(4) == (0, False)
        assert h.llc.evictions == 1

    def test_dirty_tracking(self):
        h = make_llc(capacity=512, assoc=2)
        h.fill_prefetch(0)
        h.access(0, True)  # LLC write hit
        assert h.fill_prefetch(2) is None
        assert h.fill_prefetch(4) == (0, True)

    def test_mark_dirty(self):
        # An L1 write hit marks the LLC copy dirty (write-through of the bit).
        h = make_llc(capacity=512, assoc=2)
        h.fill_demand(0, False)
        assert h.access(0, True).level == "l1"
        assert h.fill_prefetch(2) is None
        assert h.fill_prefetch(4) == (0, True)

    def test_insert_existing_merges_dirty(self):
        h = make_llc(capacity=512, assoc=2)
        h.fill_demand(0, True)
        assert h.fill_demand(0, False) is None  # refill: dirtiness is sticky
        assert h.fill_prefetch(2) is None
        assert h.fill_prefetch(4) == (0, True)

    def test_invalidate_missing(self):
        # Back-invalidating an LLC victim the L1 does not hold leaves the
        # L1 untouched.
        h = make_llc(capacity=512, assoc=2)
        h.fill_demand(1, False)  # in the L1 and LLC set 1
        h.fill_prefetch(0)
        h.fill_prefetch(2)
        # evicts 0 from LLC set 0; the L1 never held it
        assert h.fill_prefetch(4) == (0, False)
        assert h.l1.contains(1) and h.access(1, False).level == "l1"

    def test_occupancy_and_residents(self):
        h = make_llc(capacity=1024, assoc=2)
        for addr in range(4):
            h.fill_prefetch(addr)
        assert sorted(h.resident_addresses()) == [0, 1, 2, 3]


class TestSetMapping:
    def test_different_sets_do_not_conflict(self):
        h = make_llc(capacity=512, assoc=2)  # 2 sets
        victims = [h.fill_prefetch(addr) for addr in range(4)]  # two per set
        assert victims == [None] * 4 and len(h.resident_addresses()) == 4

    def test_adjacent_addresses_map_to_different_sets(self):
        # Pair members (addr, addr+1) never evict each other -- relied on
        # by the super block fill path.
        cache = SetAssociativeCache(CacheConfig(2048, 2, 128))  # 8 sets
        for addr in range(0, 64, 2):
            assert addr % cache.num_sets != (addr + 1) % cache.num_sets


class TestProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_ways(self, addrs):
        h = make_llc(capacity=1024, assoc=2)  # 4 sets x 2 ways
        for addr in addrs:
            if h.access(addr, False).level == "miss":
                h.fill_demand(addr, False)
        assert len(h.resident_addresses()) <= 8
        # Per-set constraint.
        for s in h.llc.sets:
            assert len(s) <= 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_most_recent_insert_is_resident(self, addrs):
        h = make_llc(capacity=1024, assoc=2)
        for addr in addrs:
            h.fill_prefetch(addr)
            assert h.contains(addr)
