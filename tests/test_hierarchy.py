"""Unit tests for the two-level inclusive cache hierarchy."""

from repro.cache.hierarchy import CacheHierarchy
from repro.config import CacheConfig

#: (L1s in the tile, the core that accesses): an end core and a middle core
#: of a shared tile.  The cases run their single-core body on the defaults
#: first, then loop over these (inside the body, so their ids stay put).
CORES = [(2, 1), (4, 2)]


def make_hierarchy(callback=None, l1_kb=2, llc_kb=8, num_cores=1):
    return CacheHierarchy(
        CacheConfig(l1_kb * 1024, 2, 128),
        CacheConfig(llc_kb * 1024, 4, 128, hit_latency=8),
        victim_callback=callback,
        num_cores=num_cores,
    )


class TestAccessPath:
    def test_miss_fill_then_l1_hit(self):
        h = make_hierarchy()
        assert h.access(5, False).level == "miss"
        h.fill_demand(5, False)
        assert h.access(5, False).level == "l1"

    def test_llc_hit_promotes_to_l1(self):
        h = make_hierarchy()
        h.fill_prefetch(7)  # LLC only
        assert h.access(7, False).level == "llc"
        assert h.access(7, False).level == "l1"
        for num_cores, core in CORES:
            h = make_hierarchy(num_cores=num_cores)
            h.fill_prefetch(7)
            assert h.access(7, False, core).level == "llc"
            assert h.access(7, False, core).level == "l1"
            # ... of the accessing core only: every other L1 still misses
            others = [c for c in range(num_cores) if c != core]
            assert all(h.access(7, False, c).level == "llc" for c in others)

    def test_latencies(self):
        h = make_hierarchy()
        h.fill_demand(1, False)
        assert h.access(1, False).latency == 1
        h.fill_prefetch(2)
        assert h.access(2, False).latency == 9  # L1 lookup + LLC hit


class TestInclusion:
    def test_llc_eviction_back_invalidates_l1(self):
        victims = []
        h = make_hierarchy(callback=lambda a, d: victims.append((a, d)))
        # Fill one LLC set (4 ways) with conflicting lines; LLC has 16 sets.
        addrs = [0, 16, 32, 48, 64]
        for addr in addrs:
            h.fill_demand(addr, False)
        # One LLC victim must have been evicted and removed from L1 too.
        assert len(victims) == 1
        evicted = victims[0][0]
        assert not h.l1.contains(evicted)
        assert not h.llc.contains(evicted)

    def test_llc_eviction_back_invalidates_every_l1(self):
        for num_cores, core in CORES:
            victims = []
            h = make_hierarchy(
                callback=lambda a, d: victims.append((a, d)), num_cores=num_cores
            )
            assert h.l1 is h.l1s[0] and len(h.l1s) == num_cores
            # Every core holds line 0; one core then overfills its LLC set.
            h.fill_prefetch(0)
            for each in range(num_cores):
                assert h.access(0, False, each).level == "llc"
            assert all(l1.contains(0) for l1 in h.l1s)
            for addr in [16, 32, 48, 64]:
                h.fill_demand(addr, False, core)
            assert victims == [(0, False)]
            assert not any(l1.contains(0) for l1 in h.l1s)
            assert not h.llc.contains(0)

    def test_every_llc_line_reported_once_on_eviction(self):
        victims = []
        h = make_hierarchy(callback=lambda a, d: victims.append(a))
        for addr in range(0, 2048, 16):  # conflicting set-0 lines
            h.fill_demand(addr, False)
        inserted = len(range(0, 2048, 16))
        assert len(victims) == inserted - 4  # 4 ways survive


class TestDirtyPropagation:
    def test_write_marks_llc_dirty_through_l1(self):
        dirty_flags = []
        h = make_hierarchy(callback=lambda a, d: dirty_flags.append((a, d)))
        h.fill_demand(3, False)
        assert h.access(3, True).level == "l1"  # write hits the L1
        h.invalidate(3)
        assert dirty_flags == [(3, True)]
        for num_cores, core in CORES:
            del dirty_flags[:]
            h = make_hierarchy(
                callback=lambda a, d: dirty_flags.append((a, d)), num_cores=num_cores
            )
            h.fill_demand(3, False, core)
            assert h.access(3, True, core).level == "l1"  # that core's L1
            h.invalidate(3)
            assert dirty_flags == [(3, True)]
            assert not any(l1.contains(3) for l1 in h.l1s)

    def test_demand_write_fill_is_dirty(self):
        flags = []
        h = make_hierarchy(callback=lambda a, d: flags.append((a, d)))
        h.fill_demand(4, True)
        h.invalidate(4)
        assert flags == [(4, True)]
        for num_cores, core in CORES:
            del flags[:]
            h = make_hierarchy(
                callback=lambda a, d: flags.append((a, d)), num_cores=num_cores
            )
            h.fill_demand(4, True, core)
            h.invalidate(4)
            assert flags == [(4, True)]

    def test_clean_line_reported_clean(self):
        flags = []
        h = make_hierarchy(callback=lambda a, d: flags.append((a, d)))
        h.fill_demand(4, False)
        h.invalidate(4)
        assert flags == [(4, False)]


class TestProbe:
    def test_contains_is_llc_probe(self):
        h = make_hierarchy()
        h.fill_prefetch(9)
        assert h.contains(9)
        assert not h.contains(10)
