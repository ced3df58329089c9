"""Edge-case coverage across modules: boundary geometries and parameters."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.config import (
    CacheConfig,
    DRAMConfig,
    ORAMConfig,
    SystemConfig,
    TimingProtectionConfig,
)
from repro.memory.dram import DRAMBackend
from repro.memory.periodic import PeriodicORAMBackend
from repro.oram.checkpoint import dump_oram, load_oram
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng


class TestTinyGeometries:
    def test_one_level_tree_oram_works(self):
        config = ORAMConfig(levels=1, bucket_size=4, stash_blocks=10, utilization=0.5)
        oram = PathORAM(config, DeterministicRng(1))
        n = oram.position_map.num_blocks
        for i in range(20):
            oram.access([i % n])
            oram.drain_stash()
        oram.check_invariants()

    def test_single_block_address_space(self):
        config = ORAMConfig(levels=2, bucket_size=1, stash_blocks=5, utilization=0.2)
        oram = PathORAM(config, DeterministicRng(2))
        for _ in range(10):
            oram.access([0])
        oram.check_invariants()

    def test_direct_mapped_cache(self):
        llc = CacheConfig(1024, 1, 128)  # 8 sets, 1 way
        h = CacheHierarchy(llc, llc)
        h.fill_prefetch(0)
        assert h.contains(0)
        h.fill_prefetch(8)  # same set: evicts 0
        assert not h.contains(0)

    def test_scaled_to_footprint_tiny_and_large(self):
        config = ORAMConfig()
        tiny = config.scaled_to_footprint(1)
        assert tiny.num_blocks >= 1
        big = config.scaled_to_footprint(200_000)
        assert big.num_blocks >= 200_000
        assert big.levels > tiny.levels


class TestBackendEdges:
    def test_single_bank_dram_serializes_fully(self):
        dram = DRAMBackend(DRAMConfig(num_banks=1), block_bytes=128)
        first, _ = dram.demand_access(0, 0, False)
        second, _ = dram.demand_access(1, 0, False)
        assert second >= first + 100

    def test_periodic_with_zero_interval_is_back_to_back(self):
        config = ORAMConfig(levels=6, bucket_size=4, stash_blocks=30, utilization=0.5)
        backend = PeriodicORAMBackend(
            PathORAM(config, DeterministicRng(3), populate=False),
            DRAMConfig(),
            BaselineScheme(),
            TimingProtectionConfig(interval_cycles=0),
        )
        first, _ = backend.demand_access(1, 0, False)
        second, _ = backend.demand_access(2, first, False)
        assert second == first + backend.interconnect.path_cycles

    def test_builder_honours_an_explicit_zero_interval(self):
        """Regression: the builder turned ``interval_cycles=0`` into 100."""
        for interval in (0, 100, 250):
            config = dataclasses.replace(
                SystemConfig(),
                timing_protection=TimingProtectionConfig(interval_cycles=interval),
            )
            backend = SecureSystem.build("oram_intvl", 256, config).backend
            assert backend.interval == interval
        assert SecureSystem.build("oram_intvl", 256).backend.interval == 100

    def test_periodic_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            PeriodicORAMBackend(
                PathORAM(
                    ORAMConfig(levels=6, bucket_size=4, stash_blocks=30),
                    DeterministicRng(3),
                    populate=False,
                ),
                DRAMConfig(),
                BaselineScheme(),
                TimingProtectionConfig(interval_cycles=-1),
            )


class TestCheckpointProperty:
    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40))
    def test_checkpoint_preserves_position_map_exactly(self, addrs):
        config = ORAMConfig(levels=5, bucket_size=3, stash_blocks=30, utilization=0.5)
        oram = PathORAM(config, DeterministicRng(7))
        n = oram.position_map.num_blocks
        for raw in addrs:
            oram.access([raw % n])
        restored = load_oram(dump_oram(oram))
        for addr in range(n):
            assert restored.position_map.leaf(addr) == oram.position_map.leaf(addr)
        restored.check_invariants()


class TestRngEdges:
    def test_zipf_single_element(self):
        rng = DeterministicRng(1)
        assert all(rng.zipf(1, 0.9) == 0 for _ in range(5))

    def test_geometric_huge_mean_bounded_draws(self):
        rng = DeterministicRng(2)
        draws = [rng.geometric(1000.0) for _ in range(100)]
        assert all(d >= 1 for d in draws)
        assert max(d for d in draws) < 100_000
