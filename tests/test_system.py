"""Integration tests for the full secure-processor system."""

import inspect

import pytest

from repro.analysis.experiments import run_schemes
from repro.config import CacheConfig, ORAMConfig, SystemConfig
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng


def small_config(bucket_size=4):
    return SystemConfig(
        oram=ORAMConfig(levels=8, bucket_size=bucket_size, stash_blocks=60, utilization=0.5),
        l1=CacheConfig(capacity_bytes=4 * 1024, associativity=4),
        llc=CacheConfig(capacity_bytes=16 * 1024, associativity=8, hit_latency=8),
    )


def sequential_trace(n=2000, footprint=512, gap=10):
    trace = Trace("seq", footprint_blocks=footprint)
    for i in range(n):
        trace.append(gap, i % footprint)
    return trace


def random_trace(n=2000, footprint=512, gap=10, seed=1):
    rng = DeterministicRng(seed)
    trace = Trace("rand", footprint_blocks=footprint)
    for _ in range(n):
        trace.append(gap, rng.randint(0, footprint - 1))
    return trace


class TestBuild:
    def test_all_scheme_labels_build(self):
        for label in ["dram", "dram_pre", "stat_pre", "oram", "oram_pre",
                      "dyn_pre", "stat", "dyn",
                      "dyn_sm_nb", "dyn_am_nb", "dyn_strided",
                      "oram_intvl", "stat_intvl", "dyn_intvl"]:
            system = SecureSystem.build(label, footprint_blocks=256, config=small_config())
            assert system.label == label

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SecureSystem.build("bogus", footprint_blocks=256)
        with pytest.raises(ValueError):
            SecureSystem.build("dyn_xx_yy", footprint_blocks=256)

    def test_periodic_dram_rejected(self):
        with pytest.raises(ValueError):
            SecureSystem.build("dram_intvl", footprint_blocks=256)


class TestBasicRuns:
    def test_dram_faster_than_oram(self):
        trace = sequential_trace()
        res = run_schemes(trace, ["dram", "oram"], config=small_config())
        assert res["oram"].cycles > 2 * res["dram"].cycles

    def test_deterministic_replay(self):
        trace = random_trace()
        a = SecureSystem.build("dyn", trace.footprint_blocks, small_config()).run(trace)
        b = SecureSystem.build("dyn", trace.footprint_blocks, small_config()).run(trace)
        assert a.cycles == b.cycles
        assert a.llc_misses == b.llc_misses
        assert a.merges == b.merges

    def test_cached_workload_is_cheap(self):
        # Footprint far below the LLC: after the cold pass everything hits.
        trace = sequential_trace(n=2000, footprint=64)
        res = SecureSystem.build("oram", 64, small_config()).run(trace)
        assert res.l1_hits + res.llc_hits > 0.9 * len(trace)

    def test_oram_functional_state_consistent_after_run(self):
        trace = random_trace(n=1500)
        system = SecureSystem.build("dyn", trace.footprint_blocks, small_config())
        system.run(trace)
        system.backend.oram.check_invariants()

    def test_llc_contents_are_copies_of_oram_blocks(self):
        trace = random_trace(n=500)
        system = SecureSystem.build("oram", trace.footprint_blocks, small_config())
        system.run(trace)
        n = system.backend.oram.position_map.num_blocks
        for addr in system.hierarchy.resident_addresses():
            assert 0 <= addr < n


class TestWarmup:
    def test_warmup_excludes_cold_misses(self):
        trace = sequential_trace(n=1000, footprint=64)
        cold = SecureSystem.build("oram", 64, small_config()).run(trace)
        warm = SecureSystem.build("oram", 64, small_config()).run(trace, warmup_entries=500)
        assert warm.llc_misses < cold.llc_misses
        assert warm.cycles < cold.cycles
        assert warm.trace_entries == 500

    def test_run_schemes_warmup_fraction(self):
        trace = sequential_trace(n=1000, footprint=64)
        res = run_schemes(trace, ["oram"], config=small_config(), warmup_fraction=0.5)
        assert res["oram"].trace_entries == 500

    def test_bad_warmup_fraction(self):
        trace = sequential_trace(n=10)
        with pytest.raises(ValueError):
            run_schemes(trace, ["oram"], config=small_config(), warmup_fraction=1.0)


class TestSchemeComparisons:
    def test_static_beats_baseline_on_pure_sequential(self):
        trace = sequential_trace(n=4000, footprint=512, gap=10)
        res = run_schemes(trace, ["oram", "stat"], config=small_config(), warmup_fraction=0.3)
        assert res["stat"].speedup_over(res["oram"]) > 0.1
        assert res["stat"].llc_misses < res["oram"].llc_misses

    def test_dynamic_matches_baseline_on_random(self):
        trace = random_trace(n=4000, footprint=4096)
        res = run_schemes(trace, ["oram", "dyn"], config=small_config(), warmup_fraction=0.3)
        assert abs(res["dyn"].speedup_over(res["oram"])) < 0.05

    def test_dynamic_gains_on_sequential(self):
        trace = sequential_trace(n=6000, footprint=512, gap=10)
        res = run_schemes(trace, ["oram", "dyn"], config=small_config(), warmup_fraction=0.5)
        assert res["dyn"].speedup_over(res["oram"]) > 0.05
        # Merging happened during warmup (excluded from the delta); the
        # measured window shows its effect as prefetch hits.
        assert res["dyn"].prefetch_hits > 0

    def test_traditional_prefetch_helps_dram(self):
        trace = sequential_trace(n=4000, footprint=2048, gap=30)
        res = run_schemes(trace, ["dram", "dram_pre"], config=small_config(), warmup_fraction=0.3)
        assert res["dram_pre"].speedup_over(res["dram"]) > 0.0

    def test_traditional_prefetch_does_not_help_oram(self):
        trace = sequential_trace(n=3000, footprint=2048, gap=5)
        res = run_schemes(trace, ["oram", "oram_pre"], config=small_config(), warmup_fraction=0.3)
        # Memory bound: ORAM has no spare bandwidth for prefetches.
        assert res["oram_pre"].speedup_over(res["oram"]) < 0.05

    def test_periodic_oram_slower_but_close(self):
        trace = random_trace(n=2000, footprint=2048, gap=5)
        res = run_schemes(trace, ["oram", "oram_intvl"], config=small_config(), warmup_fraction=0.3)
        slowdown = res["oram_intvl"].normalized_completion_time(res["oram"])
        assert 1.0 <= slowdown < 1.5


def evict_from_llc(system, addr):
    """Push ``addr`` out of the LLC through the tile: a run of demand misses
    on conflicting lines, whose fills return it as their victim."""
    llc = system.hierarchy.llc
    trace = Trace("evict", footprint_blocks=256)
    for k in range(1, llc.associativity + 1):
        trace.append(10, addr + k * llc.num_sets)
    system.run(trace)
    assert not llc.contains(addr)


class TestPendingFills:
    """Regression: stale in-flight prefetch fills must be purged when the
    line leaves the LLC, so a later re-fetch of the same address cannot
    stall on a dead completion cycle and the tracking dict stays bounded."""

    def test_evicted_prefetch_purges_pending_fill(self):
        system = SecureSystem.build("dram_pre", footprint_blocks=256, config=small_config())
        system.hierarchy.fill_prefetch(7)
        system._pending_fills[7] = 10**15  # fill still "in flight"
        evict_from_llc(system, 7)  # line leaves the LLC before use
        assert 7 not in system._pending_fills

    def test_prefetch_fill_victim_purges_pending_fill(self):
        # The victim of a fill the traditional prefetcher brings in takes
        # the same route as a demand fill's: purged and handed to the
        # backend, at the cycle the prefetch is issued.
        system = SecureSystem.build("dram_pre", footprint_blocks=256, config=small_config())
        llc = system.hierarchy.llc
        victim = 3 + 6 * llc.num_sets  # LLC set 3, like the prefetch of line 3
        system.hierarchy.fill_demand(victim, True, None)  # dirty, LRU of set 3
        for k in range(1, llc.associativity):
            system.hierarchy.fill_prefetch(victim + k * llc.num_sets)
        system._pending_fills[victim] = 10**15
        trace = Trace("stream", footprint_blocks=256)
        # The third miss trains the stream: it predicts 3 and 4, and the
        # bus, backlogged by the prefetch of 3, declines 4.
        for addr in (0, 1, 2):
            trace.append(10, addr)
        system.run(trace)
        assert not llc.contains(victim) and llc.contains(3)
        assert victim not in system._pending_fills
        assert set(system._pending_fills) == {3}
        assert system.backend.stats.write_accesses == 1
        assert system.backend.stats.prefetch_requests == 1
        source = inspect.getsource(SecureSystem._issue_prefetches)
        assert "evict_line" not in source and "del " not in source

    def test_pending_fills_bounded_by_llc_capacity(self):
        # Footprint far beyond the LLC: every prefetched line is eventually
        # evicted, so entries must not accumulate across the whole trace.
        trace = sequential_trace(n=6000, footprint=2048)
        system = SecureSystem.build("dram_pre", footprint_blocks=2048, config=small_config())
        system.run(trace)
        assert len(system._pending_fills) <= system.config.llc.num_lines

    def test_refetched_line_hits_without_stale_stall(self):
        system = SecureSystem.build("dram_pre", footprint_blocks=256, config=small_config())
        system.hierarchy.fill_prefetch(9)
        system._pending_fills[9] = 10**15
        evict_from_llc(system, 9)
        # Re-fetch on demand and hit it: the run loop must not pick up the
        # stale completion cycle.
        trace = Trace("refetch", footprint_blocks=256)
        trace.append(10, 9)
        trace.append(10, 9)
        result = system.run(trace)
        assert result.cycles < 10**12
