"""Unit tests for the two-level inclusive cache hierarchy."""

import os
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache
import repro.memory.dram
from repro.cache.hierarchy import CacheHierarchy
from repro.config import CacheConfig, SystemConfig
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace

#: (L1s in the tile, the core that accesses): an end core and a middle core
#: of a shared tile.  The cases run their single-core body on the defaults
#: first, then loop over these (inside the body, so their ids stay put).
CORES = [(2, 1), (4, 2)]


def make_hierarchy(l1_kb=2, llc_kb=8, num_cores=1):
    return CacheHierarchy(
        CacheConfig(l1_kb * 1024, 2, 128),
        CacheConfig(llc_kb * 1024, 4, 128, hit_latency=8),
        num_cores=num_cores,
    )


def evict(h, addr):
    """Push ``addr`` out of the LLC (and so every L1) with conflicting
    prefetch fills into its set; the set must hold nothing else.  Returns
    the LLC victims the fills returned."""
    ways = range(1, h.llc.associativity + 1)
    fills = [h.fill_prefetch(addr + k * h.llc.num_sets) for k in ways]
    return [victim for victim in fills if victim is not None]


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
        h = make_hierarchy()
        # Fill one LLC set (4 ways) with conflicting lines; LLC has 16 sets.
        addrs = [0, 16, 32, 48, 64]
        fills = [h.fill_demand(addr, False) for addr in addrs]
        victims = [victim for victim in fills if victim is not None]
        # One LLC victim must have been evicted and removed from L1 too.
        assert len(victims) == 1
        evicted = victims[0][0]
        assert not h.l1.contains(evicted)
        assert not h.llc.contains(evicted)

    def test_llc_eviction_back_invalidates_every_l1(self):
        for num_cores, core in CORES:
            h = make_hierarchy(num_cores=num_cores)
            assert h.l1 is h.l1s[0] and len(h.l1s) == num_cores
            # Every core holds line 0; one core then overfills its LLC set.
            h.fill_prefetch(0)
            for each in range(num_cores):
                assert h.access(0, False, each).level == "llc"
            assert all(l1.contains(0) for l1 in h.l1s)
            fills = [h.fill_demand(addr, False, core) for addr in [16, 32, 48, 64]]
            assert fills == [None, None, None, (0, False)]
            assert not any(l1.contains(0) for l1 in h.l1s)
            assert not h.llc.contains(0)

    def test_every_llc_line_reported_once_on_eviction(self):
        h = make_hierarchy()
        # conflicting set-0 lines
        fills = [h.fill_demand(addr, False) for addr in range(0, 2048, 16)]
        victims = [victim[0] for victim in fills if victim is not None]
        inserted = len(range(0, 2048, 16))
        assert len(victims) == inserted - 4  # 4 ways survive
        assert victims == list(range(0, 2048 - 4 * 16, 16))  # each once, LRU first


class TestDirtyPropagation:
    def test_write_marks_llc_dirty_through_l1(self):
        h = make_hierarchy()
        h.fill_demand(3, False)
        assert h.access(3, True).level == "l1"  # write hits the L1
        assert evict(h, 3) == [(3, True)]
        for num_cores, core in CORES:
            h = make_hierarchy(num_cores=num_cores)
            h.fill_demand(3, False, core)
            assert h.access(3, True, core).level == "l1"  # that core's L1
            assert evict(h, 3) == [(3, True)]
            assert not any(l1.contains(3) for l1 in h.l1s)

    def test_demand_write_fill_is_dirty(self):
        h = make_hierarchy()
        h.fill_demand(4, True)
        assert evict(h, 4) == [(4, True)]
        for num_cores, core in CORES:
            h = make_hierarchy(num_cores=num_cores)
            h.fill_demand(4, True, core)
            assert evict(h, 4) == [(4, True)]

    def test_clean_line_reported_clean(self):
        h = make_hierarchy()
        h.fill_demand(4, False)
        assert evict(h, 4) == [(4, False)]


class TestProbe:
    def test_contains_is_llc_probe(self):
        h = make_hierarchy()
        h.fill_prefetch(9)
        assert h.contains(9)
        assert not h.contains(10)


# ----------------------------------------------------------- host cost guard
#: the frames the guard counts: every cache level and the DRAM backend
COUNTED = (str(Path(repro.cache.__file__).parent) + os.sep, repro.memory.dram.__file__)


class TestOneFramePerEvent:
    """Each processor event is resolved in one hierarchy frame.

    A one-reference trace runs through ``SecureSystem.build("dram", ...)``
    under ``sys.setprofile``; every Python frame whose code lives under
    ``repro/cache/`` or in ``repro/memory/dram.py`` is counted by function
    name.  A hit is one ``access``; a miss adds one ``fill_demand`` and the
    DRAM fetch, ``demand_access``, whose body is the bank/bus schedule.  An
    LLC victim, clean or dirty, is the fill's return value, handed to
    ``evict_line``; a dirty one's write-back is one more schedule.
    """

    MISS = {"access": 1, "fill_demand": 1, "demand_access": 1}

    def system(self):
        config = SystemConfig(
            l1=CacheConfig(512, 2, 128),  # 2 sets x 2 ways
            llc=CacheConfig(2048, 4, 128, hit_latency=8),  # 4 sets x 4 ways
        )
        return SecureSystem.build("dram", 64, config)

    def frames(self, system, addr, is_write=False):
        trace = Trace("one", footprint_blocks=64)
        trace.append(10, addr, is_write)
        frames = Counter()

        def hook(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(COUNTED):
                frames[frame.f_code.co_name] += 1

        sys.setprofile(hook)
        try:
            system.run(trace)
        finally:
            sys.setprofile(None)
        return dict(frames)

    def test_l1_hit(self):
        system = self.system()
        system.hierarchy.fill_demand(5, False)
        assert self.frames(system, 5, is_write=True) == {"access": 1}

    def test_llc_hit(self):
        system = self.system()
        system.hierarchy.fill_prefetch(5)
        assert self.frames(system, 5, is_write=True) == {"access": 1}

    def test_clean_miss(self):
        system = self.system()
        assert self.frames(system, 5) == self.MISS

    def test_miss_evicting_a_clean_line(self):
        system = self.system()
        for addr in (1, 5, 9, 13):  # fill LLC set 1; 1 is its LRU line
            system.hierarchy.fill_prefetch(addr)
        assert self.frames(system, 17) == {**self.MISS, "evict_line": 1}
        assert not system.hierarchy.contains(1)

    def test_miss_evicting_a_dirty_line(self):
        system = self.system()
        system.hierarchy.fill_demand(1, True)  # dirty, and in the L1 too
        for addr in (5, 9, 13):
            system.hierarchy.fill_prefetch(addr)
        assert self.frames(system, 17) == {**self.MISS, "evict_line": 1, "demand_access": 2}
        assert not system.hierarchy.contains(1)
        assert not system.hierarchy.l1.contains(1)
        assert system.backend.stats.write_accesses == 1


# ------------------------------------------------------------ the LRU model
class LruModel:
    """The inclusive L1s + LLC written as plain lists, one rule per line.

    A set is a list in LRU -> MRU order; dirty bits live in dicts.
    """

    def __init__(self, l1: CacheConfig, llc: CacheConfig, cores: int):
        self.l1_geometry = (l1.num_sets, l1.associativity)
        self.llc_geometry = (llc.num_sets, llc.associativity)
        self.l1 = [[[] for _ in range(l1.num_sets)] for _ in range(cores)]
        self.llc = [[] for _ in range(llc.num_sets)]
        self.dirty = {}  # LLC dirty bits
        self.victims = []
        self.l1_counts = [[0, 0, 0] for _ in range(cores)]  # hits, misses, evictions
        self.llc_counts = [0, 0, 0]

    def l1_set(self, core, addr):
        return self.l1[core][addr % self.l1_geometry[0]]

    def install_l1(self, core, addr):
        lines = self.l1_set(core, addr)
        if addr in lines:
            lines.remove(addr)
        elif len(lines) == self.l1_geometry[1]:
            lines.pop(0)  # silent: the LLC holds its data and dirtiness
            self.l1_counts[core][2] += 1
        lines.append(addr)

    def access(self, addr, is_write, core):
        lines = self.l1_set(core, addr)
        if addr in lines:
            self.l1_counts[core][0] += 1
            lines.remove(addr)
            lines.append(addr)
            if is_write:
                self.dirty[addr] = True
            return "l1"
        self.l1_counts[core][1] += 1
        lines = self.llc[addr % self.llc_geometry[0]]
        if addr in lines:
            self.llc_counts[0] += 1
            lines.remove(addr)
            lines.append(addr)
            if is_write:
                self.dirty[addr] = True
            self.install_l1(core, addr)
            return "llc"
        self.llc_counts[1] += 1
        return "miss"

    def fill(self, addr, is_write, core):
        lines = self.llc[addr % self.llc_geometry[0]]
        if addr in lines:
            lines.remove(addr)
            self.dirty[addr] = self.dirty[addr] or is_write
        else:
            if len(lines) == self.llc_geometry[1]:
                victim = lines.pop(0)
                self.llc_counts[2] += 1
                for l1 in self.l1:
                    victim_lines = l1[victim % self.l1_geometry[0]]
                    if victim in victim_lines:
                        victim_lines.remove(victim)
                self.victims.append((victim, self.dirty.pop(victim)))
            self.dirty[addr] = is_write
        lines.append(addr)
        if core is not None:
            self.install_l1(core, addr)


REFERENCE = st.tuples(
    st.integers(min_value=0, max_value=1),  # core (folded onto 0 for one core)
    st.integers(min_value=0, max_value=47),  # line address
    st.booleans(),  # is_write
    st.booleans(),  # a miss also prefetches the next line into the LLC
)


class TestAgainstLruModel:
    L1 = CacheConfig(512, 2, 128)  # 2 sets x 2 ways
    LLC = CacheConfig(2048, 4, 128, hit_latency=8)  # 4 sets x 4 ways

    def check(self, references, cores):
        victims = []
        h = CacheHierarchy(self.L1, self.LLC, num_cores=cores)
        model = LruModel(self.L1, self.LLC, cores)
        for core, addr, is_write, prefetch in references:
            core %= cores
            level = h.access(addr, is_write, core).level
            assert level == model.access(addr, is_write, core)
            if level == "miss":
                victims.append(h.fill_demand(addr, is_write, core))
                model.fill(addr, is_write, core)
                if prefetch:
                    victims.append(h.fill_prefetch(addr + 1))
                    model.fill(addr + 1, False, None)
        victims = [victim for victim in victims if victim is not None]
        assert victims == model.victims
        assert h.resident_addresses() == [a for lines in model.llc for a in lines]
        for core, l1 in enumerate(h.l1s):
            assert l1.resident_addresses() == [a for lines in model.l1[core] for a in lines]
            assert [l1.hits, l1.misses, l1.evictions] == model.l1_counts[core]
        assert [h.llc.hits, h.llc.misses, h.llc.evictions] == model.llc_counts

    @settings(max_examples=60, deadline=None)
    @given(st.lists(REFERENCE, max_size=300))
    def test_one_core_matches_the_model(self, references):
        self.check(references, cores=1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(REFERENCE, max_size=300))
    def test_two_cores_match_the_model(self, references):
        self.check(references, cores=2)
