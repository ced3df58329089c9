"""Treetop cache: pinned tree-top levels and truncated path streaming.

Covers the pinned treetop (DESIGN.md section 13) end to end:

* config validation and footprint rescaling;
* the one bucket store (census helpers over the would-be pinned levels);
* functional equivalence -- a treetop changes which levels cross the pins,
  never what the ORAM computes;
* truncated public timing on both interconnect models, including the
  periodic grid and the cross-runtime bit-identity contracts at ``k > 0``;
* hypothesis properties: ``k = 0`` is cycle-identical to the untruncated
  model, and ``k >= 1`` never issues a bank request that only pinned
  levels need;
* checkpoint round-trips (pinned buckets travel with the rest; an older
  document's ``treetop`` section is ignored), metrics export, and the
  physical-layout partial-bottom-tier regression that rides along.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import experiment_config
from repro.config import (
    DRAMConfig,
    ORAMConfig,
    SystemConfig,
    TimingProtectionConfig,
)
from repro.memory.interconnect import ChannelInterconnect, build_interconnect
from repro.memory.oram_backend import ORAMBackend
from repro.memory.periodic import PeriodicORAMBackend
from repro.memory.timing import transfer_cycles
from repro.observability.collect import collect_system
from repro.observability.recorder import InMemoryRecorder
from repro.oram.checkpoint import dump_oram, load_oram
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme
from repro.oram.tree import BinaryTree, PhysicalLayout
from repro.faults import FaultConfig, FaultInjector, ResilientKVStore
from repro.faults.fsck import run_fsck
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace
from tests.test_interconnect_differential import offchip_plan

SMALL_CAPACITY = 1 << 20

SMALL_ORAM = dict(levels=7, bucket_size=4, stash_blocks=50, utilization=0.5)


def small_config(treetop: int) -> ORAMConfig:
    return ORAMConfig(treetop_levels=treetop, **SMALL_ORAM)


#: bytes one bucket of ``small_config`` moves per path (Z blocks, read + write)
BUCKET_BYTES = 4 * ORAMConfig().block_bytes * 2


# ------------------------------------------------------------------- config
class TestConfigValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ORAMConfig(treetop_levels=-1)

    def test_taller_than_nominal_tree_rejected(self):
        config = ORAMConfig()
        with pytest.raises(ValueError, match="nominal tree height"):
            dataclasses.replace(config, treetop_levels=config.nominal_levels)

    def test_footprint_rescale_preserves_treetop(self):
        config = dataclasses.replace(ORAMConfig(), treetop_levels=4)
        scaled = config.scaled_to_footprint(1 << 14)
        assert scaled.treetop_levels == 4

    def test_cli_override_helper_applies_and_validates(self):
        from repro.cli import memory_config

        class Args:
            treetop = 4
            dram_model = None
            channels = None

        config = memory_config(Args())
        assert config.oram.treetop_levels == 4
        Args.treetop = 99
        with pytest.raises(SystemExit, match="--treetop"):
            memory_config(Args())


# ----------------------------------------------------------------- the tree
class TestTreetopCacheTree:
    def build(self, levels=5, z=4):
        tree = BinaryTree(levels=levels, bucket_size=z)
        # Spread a few blocks (words ``addr << 32 | leaf``) over the top
        # (the levels a treetop would pin) and the bottom of the tree.
        tree.write_bucket_at(0, [0 << 32 | 0])
        tree.write_bucket_at(1, [1 << 32 | 0])
        bottom = tree.bucket_index(levels, 3)
        tree.write_bucket_at(bottom, [2 << 32 | 3])
        return tree

    def test_read_through_and_census(self):
        """One store: the top buckets are the tree's own lists, and the
        census helpers see them like any other."""
        tree = self.build()
        assert tree.bucket(0) is tree._buckets[0]
        assert tree.occupancy() == 3
        assert sorted(tree.iter_blocks()) == [0 << 32 | 0, 1 << 32 | 0, 2 << 32 | 3]
        assert tree.find(0) and tree.find(2) and not tree.find(99)
        index = tree.address_index()
        assert index[0] == 0 and index[1] == 1
        assert index[2] == tree.bucket_index(tree.levels, 3)


# ------------------------------------------------- functional equivalence
class TestFunctionalEquivalence:
    def drive(self, treetop: int):
        oram = PathORAM(small_config(treetop), DeterministicRng(1234))
        rng = random.Random(7)
        for _ in range(300):
            oram.access([rng.randrange(oram.position_map.num_blocks)])
        return oram

    def test_treetop_never_changes_oram_state(self):
        """k only moves buckets on-chip; contents/stash/posmap match k=0."""
        base = self.drive(0)
        pinned = self.drive(4)
        assert [
            sorted(base.tree.bucket(i)) for i in range(base.tree.num_buckets)
        ] == [
            sorted(pinned.tree.bucket(i)) for i in range(pinned.tree.num_buckets)
        ]
        assert sorted(base.stash.blocks.items()) == sorted(pinned.stash.blocks.items())
        assert [
            base.position_map.leaf(a)
            for a in range(base.position_map.num_blocks)
        ] == [
            pinned.position_map.leaf(a)
            for a in range(pinned.position_map.num_blocks)
        ]
        assert run_fsck(pinned).ok

    def test_functional_attach_is_capped_at_tree_height(self):
        """A nominal-height treetop on a small functional tree (taller
        than it) leaves the ORAM consistent."""
        config = dataclasses.replace(small_config(0), treetop_levels=20)
        oram = PathORAM(config, DeterministicRng(5))
        for addr in range(50):
            oram.access([addr % oram.position_map.num_blocks])
        assert run_fsck(oram).ok


# ------------------------------------------------------------------ timing
class TestTruncatedTiming:
    def test_flat_prices_the_offchip_suffix(self):
        for k in (0, 2, 4, 6):
            config = small_config(k)
            dram = DRAMConfig()
            untruncated = build_interconnect(small_config(0), dram)
            flat = build_interconnect(config, dram)
            offchip = config.nominal_levels + 1 - k
            assert flat.offchip_levels == offchip
            assert flat.path_cycles == untruncated.path_cycles_for(offchip)
            assert flat.path_cycles == dram.latency_cycles + transfer_cycles(
                dram, offchip * BUCKET_BYTES
            )
            assert flat.bytes_per_path == offchip * BUCKET_BYTES

    def test_zero_treetop_is_the_full_path_cost(self):
        config = small_config(0)
        dram = DRAMConfig()
        timing = build_interconnect(config, dram)
        assert (
            timing.path_cycles_for(config.nominal_levels + 1)
            == timing.path_cycles
        )
        assert timing.path_cycles == dram.latency_cycles + transfer_cycles(
            dram, (config.nominal_levels + 1) * BUCKET_BYTES
        )

    def test_path_cycles_for_rejects_empty_paths(self):
        for dram in (DRAMConfig(), DRAMConfig(model="channel", num_channels=4)):
            timing = build_interconnect(small_config(0), dram)
            with pytest.raises(ValueError):
                timing.path_cycles_for(0)

    def test_channel_public_cost_shrinks_with_k(self):
        dram = DRAMConfig(model="channel", num_channels=4)
        costs = [
            build_interconnect(small_config(k), dram).path_cycles
            for k in (0, 2, 4, 6)
        ]
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] < costs[0]

    def test_backend_charges_truncated_cost_everywhere(self):
        oram = PathORAM(small_config(4), DeterministicRng(3), populate=False)
        backend = ORAMBackend(oram, DRAMConfig(), BaselineScheme())
        public = backend.interconnect.path_cycles
        assert public == backend.interconnect.path_cycles_for(
            backend.config.nominal_levels + 1 - 4
        )
        done = backend.dummy_path_access(0)
        assert done == public

    def test_k4_cuts_streamed_path_latency_by_the_gate(self):
        """The treetop's gate: mean demand-path read latency at k = 4 over
        k = 0 under the 4-channel model falls by at least 1.25x, and by no
        more than the off-chip bucket-levels fall.

        The measured bank is one *shard* of a sharded deployment -- a
        32 MB slice (17-level nominal tree, 18 bucket-levels) with
        LPDDR-class 4 GB/s channels and a 50-cycle array, so streaming is
        bandwidth-dominated and 4 of 18 bucket-levels is a meaningful
        fraction.  By arithmetic: a bucket-level is 1,024 B (Z = 4, 128 B
        blocks, read + write-back) and the gang moves 4 x 4 = 16 B/cycle,
        so the burst is B(0) = 18 x 64 = 1,152 and B(4) = 14 x 64 = 896,
        and a lone path costs T = 50 + B: 1,202 and 946.  Subtree tiles are
        as tall as the treetop (h = 4), so pinning removes exactly the root
        tile.  A demand path is on the request's clock for at least its
        burst and, on idle banks, at most T; the array latency is the same
        at both k, so the ratio of the same mix at both k lies between
        T(0) / T(4) = 1.2706x (every path lone) and B(0) / B(4) = 18 / 14 =
        1.2857x (every path's array access hidden under its predecessor's
        write-back half) -- the bandwidth ratio is the ceiling.  With early
        data return the core resumes W = B / 2 (576 and 448 cycles) before
        each demand path completes, its next miss arrives inside the
        write-back half, and all
        1,982 demand paths at both k are on the clock for the burst alone:
        1,982 x 1,152 = 2,283,264 and 1,982 x 896 = 1,775,872, exactly the
        ceiling.  The 1.25x floor keeps its meaning.  (Before early data
        return only the 160 paths behind a PosMap walk were pipelined and
        the rest paid T, or T - 25 on a row hit: 2,343,064 -> 1,861,047 =
        1.259x, under the lone-path ratio then used as the ceiling.  The
        serial train before that measured 2,348,389 -> 1,868,547 = 1.257x,
        the tile-per-channel layout 5,009,031 -> 3,921,517 = 1.277x at more
        than twice the cycles.)
        """
        trace = locality_mix_trace(0.8, accesses=2000)
        path_read = {}
        for k in (0, 4):
            config = experiment_config(capacity_bytes=32 << 20, treetop_levels=k)
            config = dataclasses.replace(
                config,
                dram=dataclasses.replace(
                    config.dram,
                    model="channel",
                    num_channels=4,
                    bandwidth_gbps=4.0,
                    latency_cycles=50,
                    subtree_levels=4,
                ),
            )
            system = SecureSystem.build("dyn", trace.footprint_blocks, config)
            result = system.run(trace)
            assert system.backend.oram.real_accesses == 1_982
            path_read[k] = result.extra["phase_path_read_cycles"]
        assert path_read == {0: 1_982 * 1_152, 4: 1_982 * 896}
        # 1152.0 -> 896.0 = 1.286x, between the floor and B(0) / B(4)
        assert 1.25 <= path_read[0] / path_read[4] <= 1_152 / 896


# ------------------------------------------------------- periodic grid
class TestPeriodicGridWithTreetop:
    def test_issue_times_stay_on_the_truncated_grid(self):
        backend = PeriodicORAMBackend(
            PathORAM(small_config(4), DeterministicRng(4), populate=False),
            DRAMConfig(model="channel", num_channels=4),
            BaselineScheme(),
            TimingProtectionConfig(interval_cycles=100),
        )
        recorder = InMemoryRecorder()
        backend.set_recorder(recorder)
        period = backend.interconnect.path_cycles + backend.interval
        rng = DeterministicRng(9)
        now = 0
        for i in range(60):
            choice = rng.randbelow(3)
            if choice == 0:
                now, _ = backend.demand_access(
                    1 + (i % 32), now=now, is_write=bool(i % 2)
                )
            elif choice == 1:
                backend.evict_line(1 + (i % 32), dirty=True, now=now)
                now = backend.busy_until
            else:
                now += 1 + rng.randbelow(3 * period)
        backend.finalize(now + 5 * period)
        starts = [r["start"] for r in recorder.records if "event" not in r]
        assert starts
        assert all(start % period == 0 for start in starts)
        dummy_slots = [
            r["slot"] for r in recorder.records if r.get("event") == "periodic_dummy"
        ]
        assert dummy_slots
        assert all(slot % period == 0 for slot in dummy_slots)


# -------------------------------------------------- bit-identity contracts
def _request_stream(count=200, footprint=128, seed=9):
    rng = DeterministicRng(seed)
    requests = []
    now = 0
    for index in range(count):
        now += rng.randint(1, 40)
        requests.append((rng.randint(0, footprint - 1), now, index % 5 == 0))
    return requests


def _treetop_system_config(k=4, channels=4) -> SystemConfig:
    config = SystemConfig()
    return dataclasses.replace(
        config,
        oram=dataclasses.replace(config.oram, treetop_levels=k),
        dram=dataclasses.replace(
            config.dram, model="channel", num_channels=channels
        ),
    )


class TestBitIdentityAtK:
    def test_parallel_runtime_matches_serial_bank(self, tmp_path):
        from repro.parallel import ParallelShardRuntime, run_serial_reference

        requests = _request_stream()
        config = _treetop_system_config()
        serial = run_serial_reference("dyn", 128, requests, config, num_shards=2)
        with ParallelShardRuntime(
            "dyn", 128, config, 2, checkpoint_dir=str(tmp_path), batch_size=23
        ) as runtime:
            parallel = runtime.run(requests)
        assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)
        # ... which now includes the interconnect's own counters, folded
        # from the workers' snapshots exactly as from the serial bank's
        assert parallel.extra["interconnect_channels"] == 4
        assert parallel.extra["interconnect_streamed_paths"] > 0
        assert parallel.extra["interconnect_treetop_hits"] > 0

    def test_sharded_bank_matches_single_controller_public_costs(self):
        """Every shard of a bank prices paths at the same truncated cost."""
        config = _treetop_system_config()
        system = SecureSystem.build("dyn", 256, config, num_shards=2)
        single = SecureSystem.build("dyn", 256, config)
        for shard in system.backend.shards:
            assert (
                shard.interconnect.path_cycles
                == single.backend.interconnect.path_cycles
            )
            assert shard.interconnect.treetop_levels == 4

    def test_serve_replay_contract_with_treetop(self, tmp_path):
        from repro.parallel import ParallelShardRuntime
        from repro.serve import OpenLoopSource, ServingFrontEnd

        config = _treetop_system_config()
        trace = locality_mix_trace(0.6, footprint_blocks=512, accesses=300)
        for shards in (1, 2, 4):
            frontend = ServingFrontEnd.build(
                "dyn", trace.footprint_blocks, config, shards,
                workload="serve_open",
            )
            report = frontend.run(OpenLoopSource.from_trace(trace, num_tenants=2))
            with ParallelShardRuntime(
                "dyn", trace.footprint_blocks, config, shards,
                checkpoint_dir=str(tmp_path / str(shards)),
            ) as runtime:
                replayed = runtime.run(frontend.issued, workload="serve_open")
            assert dataclasses.asdict(replayed) == dataclasses.asdict(
                report.sim
            ), f"{shards}-worker replay differs"


# --------------------------------------------------------------- hypothesis
def geometry():
    return dict(
        levels=st.integers(min_value=4, max_value=9),
        bucket_size=st.integers(min_value=1, max_value=5),
        channels=st.sampled_from([1, 2, 4]),
        subtree_levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**20),
    )


class TestTreetopProperties:
    @given(k=st.integers(min_value=0, max_value=6), **geometry())
    @settings(max_examples=40, deadline=None)
    def test_zero_treetop_cycle_identical_and_k_never_slower(
        self, k, levels, bucket_size, channels, subtree_levels, seed
    ):
        """k=0 reproduces the untruncated interconnect cycle-for-cycle;
        any k prices paths no higher than k=0."""
        base = ORAMConfig(
            capacity_bytes=SMALL_CAPACITY,
            levels=levels,
            bucket_size=bucket_size,
        )
        k = min(k, base.nominal_levels - 1)
        dram = DRAMConfig(
            model="channel",
            num_channels=channels,
            subtree_levels=subtree_levels,
        )
        untruncated = build_interconnect(base, dram)
        zero = build_interconnect(dataclasses.replace(base, treetop_levels=0), dram)
        pinned = build_interconnect(dataclasses.replace(base, treetop_levels=k), dram)
        assert zero.path_cycles == untruncated.path_cycles
        assert pinned.path_cycles <= zero.path_cycles
        rng = random.Random(seed)
        now_zero = now_untrunc = 0
        for _ in range(30):
            leaf = rng.randrange(1 << levels)
            done_zero = zero.path_completion(leaf, now_zero)
            done_untrunc = untruncated.path_completion(leaf, now_untrunc)
            assert done_zero - now_zero == done_untrunc - now_untrunc
            gap = rng.randrange(4) * rng.randrange(200)
            now_zero = done_zero + gap
            now_untrunc = done_untrunc + gap

    @given(k=st.integers(min_value=1, max_value=6), **geometry())
    @settings(max_examples=40, deadline=None)
    def test_no_bank_request_serves_only_pinned_levels(
        self, k, levels, bucket_size, channels, subtree_levels, seed
    ):
        """Every (bank, row) the plan touches is needed by some off-chip
        level, on every channel; the stripes cover exactly the off-chip
        suffix."""
        base = ORAMConfig(
            capacity_bytes=SMALL_CAPACITY,
            levels=levels,
            bucket_size=bucket_size,
        )
        k = min(k, base.nominal_levels - 1)
        dram = DRAMConfig(
            model="channel",
            num_channels=channels,
            subtree_levels=subtree_levels,
        )
        interconnect = build_interconnect(
            dataclasses.replace(base, treetop_levels=k), dram
        )
        assert isinstance(interconnect, ChannelInterconnect)
        layout = interconnect.layout
        leaf = random.Random(seed).randrange(1 << levels)
        nominal_leaf = leaf << interconnect._leaf_shift
        offchip = {(a.bank, a.row) for a in layout.path_addresses(nominal_leaf)[k:]}
        assert set(offchip_plan(interconnect, leaf)) == offchip
        interconnect.path_completion(leaf, 0)
        reports = interconnect.state_dict()["channels"]
        assert [report["requests"] for report in reports] == [len(offchip)] * channels
        planned_bytes = sum(report["bytes_moved"] for report in reports)
        assert planned_bytes == interconnect.offchip_levels * interconnect.bucket_bytes


# ------------------------------------------------------- physical layout
class TestPartialBottomTier:
    """levels + 1 not divisible by subtree_levels: the bottom tier is a
    partial-height tile and must still place injectively."""

    def test_bucket_locations_stay_injective(self):
        levels = 10
        layout = PhysicalLayout(levels=levels, num_banks=8, subtree_levels=3)
        assert (levels + 1) % 3 != 0  # the regression's precondition
        seen = {}
        for level in range(levels + 1):
            root_level = level - level % 3
            for index in range(1 << level):
                address = layout.address_of(level, index << (levels - level))
                tile = (root_level, index >> (level - root_level))
                # same tile, never a clash
                assert seen.setdefault((address.bank, address.row), tile) == tile

    def test_per_tier_rotation_spreads_a_constant_index_path(self):
        levels, banks = 10, 8
        layout = PhysicalLayout(levels=levels, num_banks=banks, subtree_levels=3)
        # Leaf 0's within-tier index is 0 in every tier; only the per-tier
        # rotation spreads its tiles over the banks (a tile has no channel:
        # every bucket is striped over all of them).
        tiers = len(range(0, levels + 1, 3))
        path_banks = {a.bank for a in layout.path_addresses(0)}
        assert len(path_banks) == min(tiers, banks)


# ----------------------------------------------------------- checkpointing
class TestTreetopCheckpoint:
    def checkpointed(self, k=4, accesses=200):
        oram = PathORAM(small_config(k), DeterministicRng(77))
        rng = random.Random(13)
        for _ in range(accesses):
            oram.access([rng.randrange(oram.position_map.num_blocks)])
        return oram

    def test_round_trip_carries_pinned_buckets(self):
        """Pinned buckets are in ``buckets`` like any other: the document
        has no ``treetop`` section and a restore gives the same tree."""
        oram = self.checkpointed()
        pinned = (1 << 4) - 1
        assert any(oram.tree.bucket(i) for i in range(pinned))  # not vacuous
        payload = dump_oram(oram)
        assert "treetop" not in json.loads(payload)
        restored = load_oram(payload, DeterministicRng(1))
        assert [restored.tree.bucket(i) for i in range(restored.tree.num_buckets)] == [
            oram.tree.bucket(i) for i in range(oram.tree.num_buckets)
        ]
        assert dump_oram(restored) == payload
        assert run_fsck(restored).ok

    def test_pre_treetop_documents_still_load(self):
        oram = PathORAM(small_config(0), DeterministicRng(3))
        for addr in range(40):
            oram.access([addr % oram.position_map.num_blocks])
        state = json.loads(dump_oram(oram))
        assert "treetop" not in state
        del state["config"]["treetop_levels"]  # a pre-treetop document
        restored = load_oram(json.dumps(state), DeterministicRng(4))
        assert restored.config.treetop_levels == 0
        assert run_fsck(restored).ok

    def test_obsolete_treetop_section_is_ignored(self):
        """Documents written while the tree kept a second copy of the
        pinned buckets carry a ``treetop`` section (stale image, dirty set,
        flush counters).  The live contents are in ``buckets``, so the
        section is ignored, however it reads."""
        oram = self.checkpointed()
        state = json.loads(dump_oram(oram))
        for section in (
            {"levels": 4, "dirty": [0, 2], "image": [[]] * 15, "hits": 9,
             "flushes": 1, "flushed_buckets": 2},
            {"levels": 99, "dirty": "oops"},
        ):
            state["treetop"] = section
            restored = load_oram(json.dumps(state), DeterministicRng(1))
            assert dump_oram(restored) == dump_oram(oram)


# ---------------------------------------------------------------- metrics
class TestTreetopMetrics:
    def test_single_controller_exports_treetop_counters(self):
        trace = locality_mix_trace(0.8, accesses=1200)
        config = experiment_config()
        config = dataclasses.replace(
            config,
            oram=dataclasses.replace(config.oram, treetop_levels=4),
            dram=dataclasses.replace(
                config.dram, model="channel", num_channels=4
            ),
        )
        system = SecureSystem.build("dyn", trace.footprint_blocks, config)
        result = system.run(trace)
        registry = collect_system(system)
        names = {instrument.name for instrument in registry}
        assert "interconnect.treetop_hits" in names
        assert "interconnect.treetop_bytes_saved" in names
        assert registry.counter("interconnect.treetop_hits").value > 0
        assert registry.counter("interconnect.treetop_bytes_saved").value > 0
        # one bucket store: nothing is ever flushed, so nothing to count
        assert not [name for name in names if "treetop_flush" in name]
        assert result.extra["interconnect_treetop_hits"] > 0

    def test_sharded_bank_exports_per_shard_treetop(self):
        trace = locality_mix_trace(0.8, accesses=1200)
        config = experiment_config()
        config = dataclasses.replace(
            config,
            oram=dataclasses.replace(config.oram, treetop_levels=4),
            dram=dataclasses.replace(
                config.dram, model="channel", num_channels=2
            ),
        )
        system = SecureSystem.build("dyn", trace.footprint_blocks, config, num_shards=2)
        system.run(trace)
        registry = collect_system(system)
        names = {instrument.name for instrument in registry}
        for shard in range(2):
            assert f"interconnect.shard{shard}.treetop_hits" in names
        assert not [name for name in names if "treetop_flush" in name]

    def test_flat_model_counts_saved_bytes_too(self):
        config = small_config(4)
        flat = build_interconnect(config, DRAMConfig())
        flat.path_completion(3, 0)
        flat.note_untracked(2)
        summary = flat.summary()
        assert summary["treetop_hits"] == 4 * 3
        assert summary["treetop_bytes_saved"] == 4 * 3 * BUCKET_BYTES


# ------------------------------------------------------------------- fsck
class TestFsckIndexedAudit:
    def test_missing_address_named_in_report(self):
        oram = PathORAM(small_config(0), DeterministicRng(21))
        index = oram.tree.address_index()
        victim = next(iter(sorted(index)))
        bucket = oram.tree.bucket(index[victim])
        oram.tree.write_bucket_at(
            index[victim], [word for word in bucket if word >> 32 != victim]
        )
        report = run_fsck(oram)
        assert not report.ok
        assert any(
            f"block {victim} missing from both tree and stash" == error
            for error in report.errors
        )

    def test_clean_store_audits_clean_with_treetop(self):
        oram = PathORAM(small_config(3), DeterministicRng(22))
        rng = random.Random(5)
        for _ in range(150):
            oram.access([rng.randrange(oram.position_map.num_blocks)])
        assert run_fsck(oram).ok


# ---------------------------------------------------------- trust boundary
class TestTrustBoundary:
    """The pinned levels are on-chip SRAM, inside the trust boundary: the
    fault model draws its bit-flips and replays from the off-chip suffix
    of each path only.  With one bucket store there is no stale image for
    a fault to land on harmlessly, so a fault that reached a pinned bucket
    would show here as a changed bucket."""

    K = 3

    def test_faults_never_touch_a_pinned_bucket(self):
        pinned = (1 << self.K) - 1
        seen = {"reads": 0, "faults": 0}

        def image(oram):
            tree = oram.tree
            return [
                [(word, tree.payloads.get(word >> 32)) for word in tree.bucket(i)]
                for i in range(pinned)
            ]

        class Watched(FaultInjector):
            def on_path_read(self, oram, leaf):
                before = image(oram)
                faults = self.stats.bitflips + self.stats.replays
                try:
                    return super().on_path_read(oram, leaf)
                finally:
                    assert image(oram) == before, "a fault reached a pinned bucket"
                    seen["reads"] += 1
                    seen["faults"] += self.stats.bitflips + self.stats.replays - faults

        class Store(ResilientKVStore):
            def _configure(self, fault_config=None):
                super()._configure(fault_config)
                self.injector = Watched(self.injector.config)

        config = ORAMConfig(
            levels=6, bucket_size=4, stash_blocks=60, utilization=0.5,
            treetop_levels=self.K,
        )
        store = Store(
            config,
            fault_config=FaultConfig(seed=4, bitflip_rate=0.01, replay_rate=0.01),
            seed=9,
        )
        rng = random.Random(17)
        shadow = {}
        for index in range(600):
            key = rng.randrange(store.capacity)
            if rng.random() < 0.6:
                value = bytes([index % 251]) * (1 + rng.randrange(8))
                store.put(key, value)
                shadow[key] = value
            else:
                assert store.get(key) == shadow.get(key)
        assert all(store.get(key) == value for key, value in shadow.items())
        assert seen["faults"] > 0 and store.recovery.recoveries > 0  # not vacuous
        assert seen["reads"] > 600
        assert run_fsck(store.oram).ok
