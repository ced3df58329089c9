"""Unit tests for the super block machinery and the static scheme (section 3)."""

import pytest

from repro.config import ORAMConfig
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import (
    BaselineScheme,
    PrefetchTracker,
    SchemeStats,
    StaticSuperBlockScheme,
)
from repro.utils.rng import DeterministicRng


def make_oram(levels=6, populate=False, seed=2, utilization=0.5):
    config = ORAMConfig(levels=levels, bucket_size=3, stash_blocks=50, utilization=utilization)
    return PathORAM(config, DeterministicRng(seed), populate=populate)


def attach(scheme, oram, resident=None):
    resident = resident if resident is not None else set()
    scheme.attach(oram, lambda addr: addr in resident)
    return resident


class TestBaselineScheme:
    def test_members_is_single_block(self):
        oram = make_oram()
        scheme = BaselineScheme()
        attach(scheme, oram)
        scheme.initialize()
        oram.populate()
        assert scheme.members_for(17) == [17]

    def test_process_fetch_no_prefetch(self):
        oram = make_oram()
        scheme = BaselineScheme()
        attach(scheme, oram)
        scheme.initialize()
        oram.populate()
        blocks = oram.access([17])
        fills = scheme.process_fetch(17, [17], blocks)
        assert fills == [17]
        assert oram.position_map.prefetch_bit(17) == 0
        assert scheme.stats.prefetched_blocks == 0


class TestStaticScheme:
    def test_initialize_merges_all_pairs(self):
        oram = make_oram()
        scheme = StaticSuperBlockScheme(sbsize=2)
        attach(scheme, oram)
        scheme.initialize()
        oram.populate()
        posmap = oram.position_map
        for base in range(0, posmap.num_blocks - 1, 2):
            assert posmap.leaf(base) == posmap.leaf(base + 1)
        oram.check_invariants()

    def test_members_for_returns_group(self):
        oram = make_oram()
        scheme = StaticSuperBlockScheme(sbsize=4)
        attach(scheme, oram)
        scheme.initialize()
        oram.populate()
        assert scheme.members_for(5) == [4, 5, 6, 7]

    def test_members_clipped_at_address_space(self):
        config = ORAMConfig(levels=4, bucket_size=3, stash_blocks=50)
        oram = PathORAM(config, DeterministicRng(1), populate=False)
        scheme = StaticSuperBlockScheme(sbsize=4)
        attach(scheme, oram)
        scheme.initialize()
        oram.populate()
        n = oram.position_map.num_blocks
        last_base = (n - 1) // 4 * 4
        assert scheme.members_for(n - 1) == list(range(last_base, n))

    def test_rejects_bad_sbsize(self):
        with pytest.raises(ValueError):
            StaticSuperBlockScheme(sbsize=3)
        with pytest.raises(ValueError):
            StaticSuperBlockScheme(sbsize=0)

    def test_fetch_marks_non_demand_prefetched(self):
        oram = make_oram()
        scheme = StaticSuperBlockScheme(sbsize=2)
        attach(scheme, oram)
        scheme.initialize()
        oram.populate()
        members = scheme.members_for(10)
        blocks = oram.access(members)
        fills = scheme.process_fetch(10, members, blocks)
        assert fills == [10, 11]
        # The prefetch bit is the one record of which fill is a prefetch.
        assert oram.position_map.prefetch_bit(10) == 0
        assert oram.position_map.prefetch_bit(11) == 1
        assert scheme.stats.prefetched_blocks == 1

    def test_super_block_survives_accesses(self):
        oram = make_oram()
        scheme = StaticSuperBlockScheme(sbsize=2)
        attach(scheme, oram)
        scheme.initialize()
        oram.populate()
        for _ in range(5):
            members = scheme.members_for(20)
            oram.access(members)
        posmap = oram.position_map
        assert posmap.leaf(20) == posmap.leaf(21)
        oram.check_invariants()


class TestPrefetchTracker:
    def _tracker(self):
        oram = make_oram(populate=True)
        stats = SchemeStats()
        return PrefetchTracker(oram, stats), oram, stats

    def test_hit_accounting(self):
        tracker, oram, stats = self._tracker()
        tracker.mark_prefetched(4)
        tracker.on_use(4)
        assert stats.prefetch_hits == 1
        # Second use is not a second hit.
        tracker.on_use(4)
        assert stats.prefetch_hits == 1

    def test_miss_accounting_on_unused_eviction(self):
        tracker, oram, stats = self._tracker()
        tracker.mark_prefetched(4)
        tracker.on_llc_evict(4)
        assert stats.prefetch_misses == 1

    def test_used_block_eviction_is_not_a_miss(self):
        tracker, oram, stats = self._tracker()
        tracker.mark_prefetched(4)
        tracker.on_use(4)
        tracker.on_llc_evict(4)
        assert stats.prefetch_misses == 0

    def test_non_prefetched_eviction_ignored(self):
        tracker, oram, stats = self._tracker()
        tracker.on_llc_evict(4)
        assert stats.prefetch_misses == 0

    def test_consume_bits_clears_prefetch(self):
        tracker, oram, stats = self._tracker()
        tracker.mark_prefetched(4)
        prefetch, hit = tracker.consume_bits(4)
        assert prefetch == 1 and hit == 0
        assert oram.position_map.prefetch_bit(4) == 0

    def test_consume_bits_reports_hit(self):
        tracker, oram, stats = self._tracker()
        tracker.mark_prefetched(4)
        tracker.on_use(4)
        prefetch, hit = tracker.consume_bits(4)
        assert prefetch == 1 and hit == 1

    def test_miss_rate_metric(self):
        stats = SchemeStats(prefetch_hits=3, prefetch_misses=1)
        assert stats.prefetch_miss_rate == pytest.approx(0.25)
        assert stats.prefetch_hit_rate == pytest.approx(0.75)
        assert SchemeStats().prefetch_miss_rate == 0.0
