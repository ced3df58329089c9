"""Unit tests for the ORAM memory backend."""

import dataclasses
import json
import random

import pytest

from repro.analysis.experiments import experiment_config
from repro.config import DRAMConfig, ORAMConfig
from repro.controller.sharded import build_shard_backend, make_policy
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.memory.oram_backend import ORAMBackend
from repro.oram.checkpoint import (
    CheckpointError,
    dump_backend_state,
    restore_backend_state,
)
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme, StaticSuperBlockScheme
from repro.parallel.merge import fold_backend
from repro.sim.results import SimResult
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import sequential_trace


def make_backend(scheme=None, levels=7, stash=50, bucket_size=4, utilization=0.5):
    config = ORAMConfig(levels=levels, bucket_size=bucket_size, stash_blocks=stash,
                        utilization=utilization)
    oram = PathORAM(config, DeterministicRng(8), populate=False)
    return ORAMBackend(oram, DRAMConfig(), scheme or BaselineScheme())


class TestDemand:
    def test_serialized_latency(self):
        backend = make_backend()
        first = backend.demand_access(1, now=0, is_write=False)
        second = backend.demand_access(2, now=0, is_write=False)
        # A single ORAM access saturates the channel: no overlap.
        assert second.completion_cycle >= first.completion_cycle + backend.interconnect.path_cycles

    def test_latency_includes_posmap_walk(self):
        backend = make_backend()
        cold = backend.demand_access(1, now=0, is_write=False)
        # The cold access paid extra path accesses for the PosMap walk.
        assert cold.completion_cycle >= 2 * backend.interconnect.path_cycles
        assert backend.stats.posmap_accesses > 0

    def test_fill_contains_demand(self):
        backend = make_backend()
        result = backend.demand_access(7, now=0, is_write=False)
        assert (7, False) in result.filled

    def test_rejects_out_of_range(self):
        backend = make_backend()
        with pytest.raises(ValueError):
            backend.demand_access(10**9, now=0, is_write=False)

    def test_functional_invariants_hold_after_traffic(self):
        backend = make_backend()
        n = backend.oram.position_map.num_blocks
        for i in range(50):
            backend.demand_access((i * 37) % n, now=i * 10, is_write=False)
        backend.oram.check_invariants()


class TestSuperBlockFill:
    def test_static_scheme_fills_pair(self):
        backend = make_backend(scheme=StaticSuperBlockScheme(2))
        result = backend.demand_access(6, now=0, is_write=False)
        fills = dict(result.filled)
        assert fills[6] is False
        assert fills[7] is True  # the prefetched partner

    def test_llc_resident_member_not_refilled(self):
        backend = make_backend(scheme=StaticSuperBlockScheme(2))
        resident = {7}
        backend.set_llc_probe(lambda addr: addr in resident)
        result = backend.demand_access(6, now=0, is_write=False)
        fills = dict(result.filled)
        assert 7 not in fills  # already cached: not "coming from ORAM"


class TestWriteback:
    def test_dirty_eviction_is_full_access(self):
        backend = make_backend()
        before = backend.stats.memory_accesses
        backend.evict_line(3, dirty=True, now=0)
        assert backend.stats.write_accesses == 1
        assert backend.stats.memory_accesses > before
        assert backend.busy_until > 0

    def test_clean_eviction_free(self):
        backend = make_backend()
        backend.evict_line(3, dirty=False, now=0)
        assert backend.stats.write_accesses == 0
        assert backend.stats.memory_accesses == 0

    def test_writeback_occupies_controller(self):
        backend = make_backend()
        backend.evict_line(3, dirty=True, now=0)
        blocked = backend.demand_access(4, now=0, is_write=False)
        assert blocked.completion_cycle >= 2 * backend.interconnect.path_cycles


class TestPrefetch:
    def test_prefetch_declined_when_busy(self):
        backend = make_backend()
        backend.demand_access(1, now=0, is_write=False)
        assert backend.prefetch_access(2, now=0) is None

    def test_prefetch_served_when_idle(self):
        backend = make_backend()
        result = backend.prefetch_access(2, now=0)
        assert result is not None
        assert result.filled == [(2, True)]
        # The prefetched line carries the pending-prefetch bit.
        assert backend.oram.position_map.prefetch_bit(2) == 1

    def test_prefetch_out_of_range_declined(self):
        backend = make_backend()
        assert backend.prefetch_access(10**9, now=0) is None


class TestDynamicIntegration:
    def test_dynamic_backend_runs_and_keeps_invariants(self):
        backend = make_backend(scheme=DynamicSuperBlockScheme(max_sbsize=2))
        resident = set()
        backend.set_llc_probe(lambda addr: addr in resident)
        n = backend.oram.position_map.num_blocks
        # Streaming passes over a small region to trigger merging.
        for _ in range(4):
            for addr in range(0, 32):
                result = backend.demand_access(addr, now=0, is_write=False)
                for a, _pf in result.filled:
                    resident.add(a)
            for addr in list(resident):
                resident.discard(addr)
                backend.evict_line(addr, dirty=False, now=0)
        assert backend.scheme.stats.merges > 0
        backend.oram.check_invariants()

    def test_background_evictions_counted(self):
        backend = make_backend(
            scheme=StaticSuperBlockScheme(2), stash=8, levels=8,
            bucket_size=3, utilization=0.7,
        )
        n = backend.oram.position_map.num_blocks
        rng = DeterministicRng(3)
        for i in range(300):
            backend.demand_access(rng.randint(0, n - 1), now=0, is_write=False)
        # With a tiny stash and pair fetches, background evictions happen.
        assert backend.stats.dummy_accesses > 0
        result = fold_backend(SimResult("random", "stat", 0, 300), backend)
        assert result.dummy_accesses == backend.stats.dummy_accesses
        assert result.background_eviction_rate == pytest.approx(
            result.dummy_accesses / (300 + result.dummy_accesses)
        )


class TestSetPolicy:
    @pytest.mark.parametrize("variant", ["dyn", "dyn_sm_nb"])
    def test_swapped_policy_runs_like_a_built_one(self, variant):
        """``set_policy`` is the whole swap: the fresh policy keeps the LLC
        probe the system installed and the hit loop reaches its tracker,
        so the run equals building that policy directly (a swap that lost
        the probe merges nothing; one that lost the hit hook counts no
        prefetch hits)."""
        config = experiment_config()
        trace = sequential_trace(footprint_blocks=5120, accesses=12_000)
        direct = SecureSystem.build(variant, trace.footprint_blocks, config)
        swapped = SecureSystem.build("dyn", trace.footprint_blocks, config)
        policy = make_policy(variant, config)
        swapped.backend.set_policy(policy)
        expected = direct.run(trace, warmup_entries=3000)
        result = swapped.run(trace, warmup_entries=3000)
        assert dataclasses.replace(result, scheme=variant) == expected
        assert swapped.backend.scheme is policy
        assert expected.merges > 0 and expected.prefetch_hits > 0


class TestPosMapCacheCheckpoint:
    FOOTPRINT = 16_384  # 512 level-1 PosMap blocks against a 128-block cache

    def build(self):
        return build_shard_backend("dyn", self.FOOTPRINT, experiment_config(), 0, 1)

    @staticmethod
    def run(backend, addrs):
        before = backend.stats.posmap_accesses
        for addr in addrs:
            backend.demand_access(addr, backend.busy_until, False)
        return backend.stats.posmap_accesses - before

    def test_restored_walks_are_as_long_as_the_uninterrupted_ones(self):
        """Walk lengths only, not completions: a restore re-seeds the leaf
        RNG by design.  The window's 4,096 addresses need 133 PosMap blocks,
        so the 128-block cache evicts and its LRU order matters.  (With a
        cold cache the restored shard's next 300 walks ran long.)"""
        rng = random.Random(5)
        window = [rng.randrange(4096) for _ in range(600)]
        uninterrupted = self.build()
        self.run(uninterrupted, window[:300])
        restored = self.build()
        restore_backend_state(restored, dump_backend_state(uninterrupted))
        keys = restored.posmap_hierarchy.cached_keys()
        assert keys and keys == uninterrupted.posmap_hierarchy.cached_keys()
        assert self.run(restored, window[300:]) == self.run(uninterrupted, window[300:])

    def test_older_documents_restore_a_cold_cache(self):
        source = self.build()
        self.run(source, range(0, 4096, 32))
        document = json.loads(dump_backend_state(source))
        del document["posmap_cache"]
        target = self.build()
        self.run(target, range(64))
        assert target.posmap_hierarchy.cached_keys()
        restore_backend_state(target, json.dumps(document))
        assert target.posmap_hierarchy.cached_keys() == []

    @pytest.mark.parametrize("bad", ["12", [1.5], [True], list(range(129))])
    def test_malformed_cache_is_a_checkpoint_error(self, bad):
        document = json.loads(dump_backend_state(self.build()))
        document["posmap_cache"] = bad
        with pytest.raises(CheckpointError, match="posmap_cache"):
            restore_backend_state(self.build(), json.dumps(document))
