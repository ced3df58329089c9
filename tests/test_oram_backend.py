"""Unit tests for the ORAM memory backend."""

import dataclasses
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis.experiments import experiment_config
from repro.config import CacheConfig, DRAMConfig, ORAMConfig
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
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace, sequential_trace


def make_backend(scheme=None, levels=7, stash=50, bucket_size=4, utilization=0.5):
    config = ORAMConfig(levels=levels, bucket_size=bucket_size, stash_blocks=stash,
                        utilization=utilization)
    oram = PathORAM(config, DeterministicRng(8), populate=False)
    return ORAMBackend(oram, DRAMConfig(), scheme or BaselineScheme())


class TestDemand:
    def test_serialized_latency(self):
        backend = make_backend()
        first, _ = backend.demand_access(1, now=0, is_write=False)
        second, _ = backend.demand_access(2, now=0, is_write=False)
        # A single ORAM access saturates the channel: no overlap.
        assert second >= first + backend.interconnect.path_cycles

    def test_latency_includes_posmap_walk(self):
        backend = make_backend()
        cold, _ = backend.demand_access(1, now=0, is_write=False)
        # The cold access paid extra path accesses for the PosMap walk.
        assert cold >= 2 * backend.interconnect.path_cycles
        assert backend.stats.posmap_accesses > 0

    def test_fill_contains_demand(self):
        backend = make_backend()
        _, fills = backend.demand_access(7, now=0, is_write=False)
        assert fills == [7]
        assert backend.oram.position_map.prefetch_bit(7) == 0

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
        _, fills = backend.demand_access(6, now=0, is_write=False)
        assert fills == [6, 7]
        prefetch_bit = backend.oram.position_map.prefetch_bit
        assert prefetch_bit(6) == 0
        assert prefetch_bit(7) == 1  # the prefetched partner

    def test_llc_resident_member_not_refilled(self):
        backend = make_backend(scheme=StaticSuperBlockScheme(2))
        resident = {7}
        backend.set_llc_probe(lambda addr: addr in resident)
        _, fills = backend.demand_access(6, now=0, is_write=False)
        assert fills == [6]  # 7 is already cached: not "coming from ORAM"
        assert backend.oram.position_map.prefetch_bit(7) == 0


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
        blocked, _ = backend.demand_access(4, now=0, is_write=False)
        assert blocked >= 2 * backend.interconnect.path_cycles


class TestPrefetch:
    def test_prefetch_declined_when_busy(self):
        backend = make_backend()
        backend.demand_access(1, now=0, is_write=False)
        assert backend.prefetch_access(2, now=0) is None

    def test_prefetch_served_when_idle(self):
        backend = make_backend()
        result = backend.prefetch_access(2, now=0)
        assert result is not None
        assert result[1] == [2]
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
                _, fills = backend.demand_access(addr, now=0, is_write=False)
                resident.update(fills)
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


#: the ORAM access path: the backend, the pipeline, the ORAM scheme and tree,
#: the super block policy (the cache and the sim loop above are not counted)
ACCESS_PATH = tuple(
    str(Path(repro.__file__).parent / package) + "/"
    for package in ("memory", "controller", "oram", "core")
)


class TestOneFramePerAccess:
    """Each ORAM access crosses one frame per layer boundary.

    Four accesses run under ``sys.setprofile`` on the flat model and on four
    channels with a 4-level treetop (the benchmark's ``trace_tpcc_write``
    geometry); every Python frame whose code lives under
    ``repro/{memory,controller,oram,core}`` is counted by function name.
    The PosMap block is cached beforehand, so the counts are the steady
    state (a path is arithmetic: there is no path vector to warm).  The
    two models cross the same frames: the channel plan and the treetop
    levels are walked inline.
    A deliberate new frame on the access path means editing these dicts.
    """

    #: a singleton demand miss: one frame per layer, no forwarding frame
    MISS = dict.fromkeys(
        (
            "demand_access", "execute", "drain_stash", "lookup", "members_for",
            "begin_access", "read_path_into", "remap", "train", "path_completion",
            "process_fetch", "finish_access", "on_request",
        ),
        1,
    )
    #: a merged pair adds the shared-leaf check, the fetched-member filter,
    #: Algorithm 2 (kept: the neighbor is marked prefetched) and the group
    #: merge audition
    PAIR = {
        **MISS,
        "_validated_shared_leaf": 1, "<dictcomp>": 1, "_run_break": 1,
        "break_threshold": 1, "_base_threshold": 1, "tracker": 1,
        "mark_prefetched": 1, "_run_merge": 1,
    }
    #: a dirty write-back: the eviction hooks (the policy's; its prefetch
    #: tracker only for an unused prefetch), then the access minus the
    #: super block policy
    WRITEBACK = {
        **{name: 1 for name in MISS if name not in ("demand_access", "process_fetch")},
        "evict_line": 1, "on_llc_evict": 1, "super_block_of": 1, "_check_addr": 1,
    }

    @staticmethod
    def system(model):
        if model == "flat":
            config = experiment_config()
        else:
            config = experiment_config(treetop_levels=4)
            config = dataclasses.replace(
                config, dram=dataclasses.replace(config.dram, model="channel", num_channels=4)
            )
        return SecureSystem.build("dyn", 4096, config)

    @staticmethod
    def frames(call):
        frames = Counter()

        def hook(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(ACCESS_PATH):
                frames[frame.f_code.co_name] += 1

        sys.setprofile(hook)
        try:
            result = call()
        finally:
            sys.setprofile(None)
        return dict(frames), result

    @pytest.fixture(params=["flat", "channel4_treetop4"])
    def backend(self, request):
        backend = self.system(request.param).backend
        backend.demand_access(40, 0, False)  # caches the PosMap block of 32..63
        return backend

    @staticmethod
    def singleton(backend):
        leaves = backend.oram.position_map._leaves
        return next(addr for addr in range(32, 40) if leaves[addr] != leaves[addr ^ 1])

    def test_singleton_demand_miss(self, backend):
        addr = self.singleton(backend)
        assert backend.scheme.members_for(addr) == [addr]
        frames, _ = self.frames(lambda: backend.demand_access(addr, backend.busy_until, False))
        assert frames == self.MISS

    def test_merged_pair_miss(self, backend):
        oram = backend.oram
        leaves = oram.position_map._leaves
        oram.access([44])  # merge (44, 45): both in the stash, one leaf
        oram.begin_access([45])
        oram.remap_group([44, 45], leaves[44])
        oram.finish_access()
        assert backend.scheme.members_for(44) == [44, 45]
        frames, _ = self.frames(lambda: backend.demand_access(44, backend.busy_until, False))
        assert frames == self.PAIR

    def test_dirty_writeback(self, backend):
        addr = self.singleton(backend)
        frames, _ = self.frames(lambda: backend.evict_line(addr, True, backend.busy_until))
        assert frames == self.WRITEBACK

    def test_drain_of_k_evictions(self, backend):
        oram = backend.oram
        store = oram.stash.blocks
        leaf = 0
        while len(store) <= oram.stash.capacity + 20:  # the stash overflows
            oram.tree.read_path_into(leaf, store)
            leaf += 7
        frames, k = self.frames(oram.drain_stash)
        assert k > 1
        assert frames == {
            "drain_stash": 1, "dummy_access": k, "read_path_into": k, "finish_access": k,
        }


class TestOneFramePerVictim:
    """An LLC victim crosses one frame per layer on a ``dyn`` tile.

    The fill returns the victim and the reference loop hands it to
    ``ORAMBackend.evict_line`` (no callback frame), whose policy hook
    ``DynamicSuperBlockScheme.on_llc_evict`` reaches the prefetch tracker
    only for an unused prefetch -- the one eviction the tracker counts, as
    a prefetch miss (which the adaptive threshold policy hears of).  The
    victim was fetched while its pair neighbor sat in the LLC, so its
    eviction is no evidence against the pair and reads no super block.
    Frames under ``repro/{memory,controller,oram,core}`` are counted while
    ``evict_line`` runs.
    """

    LLC_SETS = 4

    def system(self):
        config = dataclasses.replace(
            experiment_config(),
            l1=CacheConfig(512, 2, 128),  # 2 sets x 2 ways
            llc=CacheConfig(self.LLC_SETS * 4 * 128, 4, 128, hit_latency=8),
        )
        return SecureSystem.build("dyn", 4096, config)

    @staticmethod
    def run(system, addr):
        trace = Trace("one", footprint_blocks=4096)
        trace.append(10, addr)
        system.run(trace)

    @staticmethod
    def frames_under_evict_line(call):
        frames = Counter()
        active = []

        def hook(frame, event, _arg):
            code = frame.f_code
            if not code.co_filename.startswith(ACCESS_PATH):
                return
            if event == "call":
                if code.co_name == "evict_line":
                    active.append(frame)
                if active:
                    frames[code.co_name] += 1
            elif event == "return" and active and frame is active[-1]:
                active.pop()

        sys.setprofile(hook)
        try:
            call()
        finally:
            sys.setprofile(None)
        return dict(frames)

    def evict(self, prefetched):
        """Bring a singleton line in (as a demand, or as a prefetch), make it
        its LLC set's LRU line and evict it with a demand miss; returns the
        frames of the eviction and the prefetch misses it counted."""
        system = self.system()
        leaves = system.backend.oram.position_map._leaves
        singletons = [a for a in range(64, 256) if leaves[a] != leaves[a ^ 1]]
        victim = singletons[0]
        same_set = [a for a in singletons if a % self.LLC_SETS == victim % self.LLC_SETS]
        evictor = same_set[1]
        hierarchy = system.hierarchy
        hierarchy.fill_prefetch(victim ^ 1)  # the pair neighbor is resident
        if prefetched:
            backend = system.backend
            _, fills = backend.prefetch_access(victim, backend.busy_until)
            assert fills == [victim]
            hierarchy.fill_prefetch(victim)
        else:
            self.run(system, victim)
        for k in (1, 2, 3):  # fill the set: the victim is its LRU line
            assert hierarchy.fill_prefetch(victim + 64 * k * self.LLC_SETS) is None
        stats = system.backend.scheme.stats
        misses = stats.prefetch_misses
        frames = self.frames_under_evict_line(lambda: self.run(system, evictor))
        assert not hierarchy.contains(victim) and hierarchy.contains(evictor)
        return frames, stats.prefetch_misses - misses

    def test_clean_victim(self):
        frames, prefetch_misses = self.evict(prefetched=False)
        assert frames == {"evict_line": 1, "on_llc_evict": 1}
        assert prefetch_misses == 0

    def test_unused_prefetch_reaches_the_tracker(self):
        frames, prefetch_misses = self.evict(prefetched=True)
        # the tracker's hook, and the adaptive threshold hears of the miss
        assert frames == {"evict_line": 1, "on_llc_evict": 2, "on_prefetch_miss": 1}
        assert prefetch_misses == 1


class TestRemapIsTheDraw:
    """``PositionMap.remap`` is the one leaf draw of a real access.

    The audit's planted leak (``tests/test_cli.py::TestAuditVerdict``)
    patches it on the class; an access path that drew its leaf anywhere
    else -- say, a remap inlined into ``begin_access`` -- would slip past
    that oracle silently.  So every real access must call it exactly once,
    and the only other caller is the merge/break regrouping.
    """

    def test_one_remap_per_real_access(self, monkeypatch):
        from repro.oram.position_map import PositionMap

        remap = PositionMap.remap
        callers = Counter()

        def counting_remap(self, addrs, leaf=None):
            callers[sys._getframe(1).f_code.co_name] += 1
            return remap(self, addrs, leaf)

        monkeypatch.setattr(PositionMap, "remap", counting_remap)
        trace = locality_mix_trace(0.8, footprint_blocks=8192, accesses=6000, seed=3)
        system = SecureSystem.build("dyn", trace.footprint_blocks, experiment_config())
        result = system.run(trace)
        oram = system.backend.oram
        assert callers["begin_access"] == oram.real_accesses > 0
        assert result.merges > 0 and callers["remap_group"] > 0
        assert set(callers) == {"begin_access", "remap_group"}
