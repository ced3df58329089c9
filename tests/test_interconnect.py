"""Tests for the pluggable memory-interconnect layer.

Two contracts anchor the refactor:

* the default :class:`FlatInterconnect` reproduces the pre-refactor
  scalar timing bit-for-bit (the golden determinism test pins the full
  system; here we pin the layer itself), and
* a *degenerate* :class:`ChannelInterconnect` -- one channel, more banks
  than subtrees, closed page policy -- reproduces the flat model's cycle
  counts exactly, access by access (property-tested over random
  geometries and leaf schedules).

Beyond equivalence: the layout must tile every bucket, multi-channel
streaming must actually be faster than the flat scalar, the periodic
grid must stay leak-free under the channel model, and the scheduler
state must survive a checkpoint round-trip.
"""

import dataclasses
import json
import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import experiment_config
from repro.config import DRAMConfig, ORAMConfig, SystemConfig, TimingProtectionConfig
from repro.controller.sharded import build_bank
from repro.health import HealthPolicy
from repro.memory.dram import DRAMBackend
from repro.memory.interconnect import (
    ChannelInterconnect,
    FlatInterconnect,
    build_interconnect,
)
from repro.memory.oram_backend import ORAMBackend
from repro.memory.periodic import PeriodicORAMBackend
from repro.memory.timing import transfer_cycles
from repro.observability.collect import collect_controllers, collect_system
from repro.observability.recorder import InMemoryRecorder
from repro.oram.checkpoint import (
    CheckpointError,
    dump_backend_state,
    restore_backend_state,
)
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme
from repro.oram.tree import PhysicalLayout
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads import tpcc_trace
from repro.workloads.synthetic import locality_mix_trace
from tests.test_interconnect_differential import offchip_plan

#: Degenerate channel config: provably equivalent to the flat model.
DEGENERATE = dict(model="channel", num_channels=1, num_banks=1 << 30, page_policy="closed")

#: A small nominal tree (1 MB capacity -> ~12 levels) keeps the
#: property-test plans cheap without changing any of the arithmetic.
SMALL_CAPACITY = 1 << 20


def nominal_path_cycles(oram, dram, levels=None):
    """The paper's flat path cost, written out (sections 2.6, 5.1): flat
    latency + the streamed bucket-levels' bytes over one channel's pins."""
    levels = oram.nominal_levels + 1 if levels is None else levels
    return dram.latency_cycles + transfer_cycles(
        dram, levels * oram.bucket_size * oram.block_bytes * 2
    )


def degenerate_dram(**overrides):
    return DRAMConfig(**{**DEGENERATE, **overrides})


class TestSharedLatencyHelper:
    def test_transfer_cycles_matches_dram_backend(self):
        dram = DRAMConfig()
        assert transfer_cycles(dram, 128) == 8
        completion, _ = DRAMBackend(dram, 128).demand_access(0, 0, False)
        assert completion == dram.latency_cycles + 8 == 108

    def test_transfer_cycles_floor(self):
        assert transfer_cycles(DRAMConfig(bandwidth_gbps=1000.0), 1) == 1

    def test_timing_model_uses_helper(self):
        oram = ORAMConfig(levels=9, bucket_size=4)
        dram = DRAMConfig()
        timing = build_interconnect(oram, dram)
        bytes_per_path = (oram.nominal_levels + 1) * 4 * 128 * 2
        assert timing.path_cycles == dram.latency_cycles + transfer_cycles(
            dram, bytes_per_path
        )


class TestPhysicalLayout:
    def test_every_bucket_has_an_address(self):
        layout = PhysicalLayout(levels=6, num_banks=8, subtree_levels=2)
        for leaf in range(1 << 6):
            path = layout.path_addresses(leaf)
            assert len(path) == 7
            for address in path:
                assert 0 <= address.bank < 8
                assert address.row >= 0

    def test_buckets_in_one_subtree_share_an_address(self):
        layout = PhysicalLayout(levels=7, num_banks=8, subtree_levels=2)
        for leaf in (0, 17, 127):
            path = layout.path_addresses(leaf)
            for level in range(7 + 1):
                partner = level - level % 2  # the subtree's root level
                assert path[level] == path[partner]

    def test_distinct_subtrees_get_distinct_slots(self):
        layout = PhysicalLayout(levels=6, num_banks=3, subtree_levels=2)
        seen = {}
        for root_level in range(0, 6 + 1, 2):
            for index in range(1 << root_level):
                address = layout.address_of(root_level, index << (6 - root_level))
                assert address not in seen, (
                    f"subtrees {seen[address]} and {(root_level, index)} collide"
                )
                seen[address] = (root_level, index)
        assert len(seen) == 1 + 4 + 16 + 64

    def test_path_spreads_across_channels(self):
        # Striping, not tile placement, spreads a path: whatever the leaf,
        # every channel of the gang serves the same requests and carries
        # exactly a quarter of the path's bytes.
        oram = ORAMConfig(capacity_bytes=SMALL_CAPACITY, levels=9, bucket_size=4)
        for leaf in (0, 1, 300, 511):
            four = build_interconnect(oram, DRAMConfig(model="channel", num_channels=4))
            four.path_completion(leaf, 0)
            channels = four.state_dict()["channels"]
            assert len(channels) == 4
            assert all(channel == channels[0] for channel in channels)
            assert channels[0]["bytes_moved"] * 4 == four.bytes_per_path
            assert channels[0]["requests"] == len(offchip_plan(four, leaf))


class TestFlatInterconnect:
    def test_matches_timing_model(self):
        oram = ORAMConfig(levels=9, bucket_size=4)
        dram = DRAMConfig()
        flat = build_interconnect(oram, dram)
        assert isinstance(flat, FlatInterconnect)
        assert flat.path_cycles == nominal_path_cycles(oram, dram)
        assert flat.bytes_per_path == (oram.nominal_levels + 1) * 4 * 128 * 2
        assert flat.path_completion(5, 1000) == 1000 + nominal_path_cycles(oram, dram)

    def test_flat_is_the_one_formula_at_one_channel(self):
        """``path_cycles_for`` has one definition; the flat model reads it
        at C = 1 whatever ``num_channels`` says, the channel model at C."""
        oram = ORAMConfig(levels=9, bucket_size=4)
        assert FlatInterconnect.path_cycles_for is ChannelInterconnect.path_cycles_for
        assert FlatInterconnect.note_untracked is ChannelInterconnect.note_untracked
        flat = build_interconnect(oram, DRAMConfig(num_channels=4))
        one = build_interconnect(oram, DRAMConfig(model="channel", num_channels=1))
        four = build_interconnect(oram, DRAMConfig(model="channel", num_channels=4))
        for levels in (1, 7, oram.nominal_levels + 1):
            assert flat.path_cycles_for(levels) == nominal_path_cycles(oram, DRAMConfig(), levels)
            assert one.path_cycles_for(levels) == flat.path_cycles_for(levels)
            assert four.path_cycles_for(levels) <= flat.path_cycles_for(levels)

    def test_default_system_builds_flat(self):
        trace = locality_mix_trace(0.8, accesses=50)
        system = SecureSystem.build("dyn", trace.footprint_blocks, experiment_config())
        assert isinstance(system.backend.interconnect, FlatInterconnect)
        assert system.backend.interconnect.path_cycles == nominal_path_cycles(
            system.backend.config, system.config.dram
        )


class TestDegenerateEquivalence:
    """1 channel + unbounded banks + closed page == the flat model, exactly."""

    @given(
        levels=st.integers(min_value=4, max_value=9),
        bucket_size=st.integers(min_value=1, max_value=5),
        block_shift=st.integers(min_value=6, max_value=9),
        bandwidth=st.sampled_from([4.0, 12.8, 16.0, 25.6]),
        latency=st.integers(min_value=1, max_value=300),
        subtree_levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_cycle_counts_identical(
        self, levels, bucket_size, block_shift, bandwidth, latency, subtree_levels, seed
    ):
        oram = ORAMConfig(
            capacity_bytes=SMALL_CAPACITY,
            levels=levels,
            bucket_size=bucket_size,
            block_bytes=1 << block_shift,
        )
        base = dict(bandwidth_gbps=bandwidth, latency_cycles=latency)
        flat = build_interconnect(oram, DRAMConfig(**base))
        channel = build_interconnect(
            oram, degenerate_dram(subtree_levels=subtree_levels, **base)
        )
        assert channel.path_cycles == flat.path_cycles
        rng = random.Random(seed)
        now_flat = now_channel = 0
        for _ in range(50):
            leaf = rng.randrange(1 << levels)
            done_flat = flat.path_completion(leaf, now_flat)
            done_channel = channel.path_completion(leaf, now_channel)
            assert done_flat - now_flat == done_channel - now_channel
            # Serialized issue (the controller's contract) plus idle gaps.
            gap = rng.randrange(4) * rng.randrange(200)
            now_flat = done_flat + gap
            now_channel = done_channel + gap

    def test_full_system_result_identical(self):
        """The whole-run statement that replaced "every field equal": the
        degenerate channel model runs the *pipelined* train and returns the
        demand block early (DESIGN.md section 11), the flat model runs the
        paper's serial train and returns the block with the path, so the
        controllers differ by exactly the array latency the pipeline hid
        and the runs by no more than that plus what early data return gave
        the core.  Scheme ``oram``: no threshold policy feeds timing back
        into what is accessed, so every functional field is equal
        (``dyn``'s Equation 1 reads busy cycles).  One channel, closed
        page, more banks than tiles: a path's first access always pays the
        full latency and no bank ever waits, so every cycle the serial
        train charges is either charged here too or counted as hidden.

        By arithmetic: ``T`` = 1,764 = L + B with L = 100, B = 1,664,
        W = 832.  Every one of the 2,956 demand paths returns its block W
        before it completes (2,956 x 832 = 2,459,392 early-return cycles),
        so the next miss always arrives inside the write-back half and
        every path but the run's first -- 2,956 demand paths and 210 of
        the 211 PosMap paths -- hides its whole array access:
        3,166 x 100 = 316,600 = busy(flat) - busy(channel) = 5,586,588 -
        5,269,988.  The run is 331,084 cycles shorter: more than the
        controller saved (the old bound), far less than the sum (the core
        mostly waits for the controller again at its next miss).
        """
        trace = locality_mix_trace(0.8, accesses=3000)
        config = experiment_config()
        flat_system = SecureSystem.build("oram", trace.footprint_blocks, config)
        flat_result = flat_system.run(trace)
        channel_config = dataclasses.replace(config, dram=degenerate_dram())
        channel_system = SecureSystem.build("oram", trace.footprint_blocks, channel_config)
        assert isinstance(channel_system.backend.interconnect, ChannelInterconnect)
        channel_result = channel_system.run(trace)
        flat_dict = dataclasses.asdict(flat_result)
        channel_dict = dataclasses.asdict(channel_result)
        flat_extra = flat_dict.pop("extra")
        channel_extra = channel_dict.pop("extra")
        hidden = channel_extra["interconnect_hidden_latency_cycles"]
        early = channel_extra["interconnect_early_return_cycles"]
        assert (hidden, early) == (3_166 * 100, 2_956 * 832)
        assert flat_dict.pop("busy_cycles") - channel_dict.pop("busy_cycles") == hidden
        # The core stalls on the controller until its block is back: the
        # run can only get shorter, by no more than the controller saved
        # plus what the blocks came back early.
        assert 0 < flat_dict.pop("cycles") - channel_dict.pop("cycles") <= hidden + early
        assert flat_dict == channel_dict
        phases = [f"phase_{name}_cycles" for name in ("posmap", "path_read", "writeback")]
        assert sum(flat_extra[p] - channel_extra[p] for p in phases) == hidden
        assert all(flat_extra[p] >= channel_extra[p] for p in phases)
        # a lone path on idle memory still costs T on both models
        assert channel_extra["interconnect_path_cycles"] == (
            flat_system.backend.interconnect.path_cycles
        )


class TestChannelSpeedup:
    def test_nominal_path_cost_scales_with_channels(self):
        oram = ORAMConfig(levels=9, bucket_size=4)
        flat = build_interconnect(oram, DRAMConfig())
        four = build_interconnect(oram, DRAMConfig(model="channel", num_channels=4))
        assert four.path_cycles < flat.path_cycles
        # latency + transfer/4 vs latency + transfer
        assert four.path_cycles - 100 <= (flat.path_cycles - 100) // 4 + 1

    def test_streamed_paths_beat_flat_by_the_gate(self):
        oram = ORAMConfig(levels=9, bucket_size=4)
        flat = build_interconnect(oram, DRAMConfig())
        four = build_interconnect(oram, DRAMConfig(model="channel", num_channels=4))
        rng = random.Random(3)
        now = 0
        for _ in range(500):
            now = four.path_completion(rng.randrange(1 << 9), now)
        mean = now / 500
        assert flat.path_cycles / mean >= 1.3

    def test_full_system_faster_with_channels(self):
        """The pinned cell, by arithmetic: 26 nominal levels x 1,024 B
        (Z = 4, 128 B blocks, read + write-back) = 26,624 B per path at
        16 B/cycle per channel.  Flat: T = 100 + 1,664 = 1,764, and every
        streamed path costs exactly T: 2,956 x 1,764 = 5,214,384.  Four
        ganged channels: T = 100 + 416 = 516, the analytic ratio is
        1,764 / 516 = 3.419x; a path whose activations ran under its
        predecessor's write-back half (W = 208 cycles >= the 100-cycle
        array) is on the request's clock for the 416-cycle burst alone,
        1,764 / 416 = 4.240x.  With early data return the core resumes W
        before each demand path completes, so its next miss arrives inside
        that write-back half: 2,931 of the 2,956 demand paths are on the
        clock for the burst alone (201 of them behind a PosMap walk), 2
        that found the controller idle for exactly T, and 23 that met a
        busy bank for 422 to 571 (11,162 together): 2,931 x 416 +
        2 x 516 + 11,162 = 1,231,490, 416.61 per request, 4.234x.  (Before
        early data return only the 202 paths behind a PosMap walk were
        pipelined: 202 x 416 + 2,744 x 516 + 10 x 600 = 1,505,936, 3.463x.
        The serial train before that measured 1,526,136, 3.417x, the
        tile-per-channel layout 2,085,246 = 705.43 per request, 2.50x.)
        """
        trace = locality_mix_trace(0.8, accesses=3000)
        config = experiment_config()
        flat_system = SecureSystem.build("dyn", trace.footprint_blocks, config)
        flat_result = flat_system.run(trace)
        fast = dataclasses.replace(
            config, dram=dataclasses.replace(config.dram, model="channel", num_channels=4)
        )
        fast_system = SecureSystem.build("dyn", trace.footprint_blocks, fast)
        fast_result = fast_system.run(trace)
        assert fast_result.cycles < flat_result.cycles
        assert fast_result.extra["interconnect_channels"] == 4
        assert fast_result.extra["interconnect_streamed_paths"] > 0
        # The layer's acceptance gate: >= 1.3x mean demand-path read
        # latency (streamed path_read cycles per pipeline request, one per
        # real path access) at 4 channels over the flat model.  The cell is
        # pinned so a simulated-cycle drift fails here with a number.
        for system in (flat_system, fast_system):
            assert system.backend.oram.real_accesses == 2_956
        flat_read = flat_result.extra["phase_path_read_cycles"]
        fast_read = fast_result.extra["phase_path_read_cycles"]
        assert (flat_read, fast_read) == (5_214_384, 1_231_490)
        assert flat_read / fast_read >= 1.3  # 1764.0 -> 416.61 cycles = 4.234x
        # nearly every path hid (most of) its array latency; nearly every
        # demand block came back W = 208 before its path completed
        assert fast_result.extra["interconnect_hidden_latency_cycles"] == 314_939
        assert fast_result.extra["interconnect_early_return_cycles"] == 592_057


def channel4(config):
    return dataclasses.replace(
        config, dram=dataclasses.replace(config.dram, model="channel", num_channels=4)
    )


class TestEarlyDataReturn:
    """The core resumes when the demand block is on chip; everything that
    decides when the *controller* is free keeps the write-back's end."""

    #: seed -> (cycles measured on the commit before early data return,
    #: cycles with it)
    TPCC = {1: (1_540_086, 1_314_472), 7: (1_840_143, 1_565_969)}

    @pytest.mark.parametrize("seed", sorted(TPCC))
    def test_tpcc_on_four_channels_runs_at_least_five_percent_fewer_cycles(self, seed):
        """The gate, on ``trace_tpcc_write``'s configuration (``dyn``, 4
        ganged channels, a 4-level treetop) over a short TPC-C trace:
        -14.6% at seed 1, -14.9% at seed 7."""
        trace = tpcc_trace(transactions=60, seed=seed)
        config = channel4(experiment_config(treetop_levels=4))
        result = SecureSystem.build("dyn", trace.footprint_blocks, config).run(trace)
        before, after = self.TPCC[seed]
        assert result.cycles == after
        assert result.cycles <= 0.95 * before

    def test_padding_queues_behind_the_write_back_not_the_early_return(self):
        """A quarantined shard of a 2-shard channel bank pads every access
        with a dummy path.  The dummy queues at the demand's controller
        completion (``busy_until``), not at the cycle its block came back,
        and the breaker is fed ``completion - start`` on both shards.  So
        both shards' clocks and every padded access time exactly as before
        early data return (the pinned cycles were measured on the commit
        before it); only the healthy shard's blocks come back earlier.

        By arithmetic: T = 412 = 100 + 312, W = 156.  Requests arrive 150
        cycles apart, alternating shards, so both queue.  A healthy access
        pipelines under its predecessor's write-back: one burst, 312.  A
        padded one is its pipelined demand path (312) plus a dummy that
        arrives when the controller frees up and exposes its array access:
        412, so 724.  Had the dummy queued at the early return, it would
        hide that access too (624)."""
        config = channel4(SystemConfig())
        bank = build_bank(
            "dyn", 64, config, 2, health_policy=HealthPolicy(quarantine_cooldown=10_000)
        )
        bank.quarantine_shard(1, reason="test")
        sick = bank.shards[1]
        queued_at_clock = []
        dummy_path_access = sick.dummy_path_access

        def padding(now):
            queued_at_clock.append(now == sick.busy_until)
            return dummy_path_access(now)

        sick.dummy_path_access = padding
        fed = []
        record_access = bank.health.record_access
        bank.health.record_access = lambda index, ok, latency: (
            fed.append(latency) or record_access(index, ok, latency)
        )
        completions = []
        controller_latency = []
        for index in range(40):
            now = 150 * index
            shard = bank.shards[index % 2]
            start = max(now, shard.busy_until)
            completions.append(bank.demand_access(index % 64, now, False)[0])
            controller_latency.append(shard.busy_until - start)
        assert bank.health.state(1).padded
        assert queued_at_clock == [True] * 20
        assert fed == controller_latency
        assert [shard.busy_until for shard in bank.shards] == [7_276, 15_666]
        assert completions[1::2] == [1_910 + 724 * k for k in range(20)]
        # before: 1,348 + 312 k -- the block is back W = 156 earlier
        assert completions[0::2] == [1_348 - 156 + 312 * k for k in range(20)]


class TestPeriodicGridWithChannels:
    def test_issue_times_stay_on_the_grid(self):
        config = ORAMConfig(levels=7, bucket_size=4, stash_blocks=50, utilization=0.5)
        backend = PeriodicORAMBackend(
            PathORAM(config, DeterministicRng(4), populate=False),
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
                now, _ = backend.demand_access(1 + (i % 32), now=now, is_write=bool(i % 2))
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


class TestCheckpointRoundTrip:
    def test_channel_state_survives(self):
        oram = ORAMConfig(capacity_bytes=SMALL_CAPACITY, levels=6, bucket_size=4)
        dram = DRAMConfig(model="channel", num_channels=4)
        source = build_interconnect(oram, dram)
        rng = random.Random(11)
        now = 0
        for _ in range(40):
            now = source.path_completion(rng.randrange(1 << 6), now)
        source.note_untracked(7)
        target = build_interconnect(oram, dram)
        target.load_state_dict(source.state_dict())
        assert target.state_dict() == source.state_dict()
        # The restored scheduler continues with identical timing.
        leaf = 13
        assert target.path_completion(leaf, now) == source.path_completion(leaf, now)

    def test_channel_count_mismatch_rejected(self):
        oram = ORAMConfig(capacity_bytes=SMALL_CAPACITY, levels=6, bucket_size=4)
        source = build_interconnect(oram, DRAMConfig(model="channel", num_channels=4))
        target = build_interconnect(oram, DRAMConfig(model="channel", num_channels=2))
        try:
            target.load_state_dict(source.state_dict())
        except ValueError:
            pass
        else:
            raise AssertionError("expected a channel-count mismatch error")


    def test_geometry_mismatch_rejected(self):
        """Bank/row numbers only mean something under the layout that
        produced them: every geometry field must match to restore."""
        oram = ORAMConfig(capacity_bytes=SMALL_CAPACITY, levels=6, bucket_size=4)
        base = dict(model="channel", num_channels=4)
        source = build_interconnect(oram, DRAMConfig(**base))
        source.path_completion(5, 0)
        state = source.state_dict()
        mismatches = [
            (oram, DRAMConfig(num_banks=16, **base)),
            (oram, DRAMConfig(subtree_levels=3, **base)),
            (oram, DRAMConfig(page_policy="closed", **base)),
            (dataclasses.replace(oram, treetop_levels=2), DRAMConfig(**base)),
            (dataclasses.replace(oram, capacity_bytes=SMALL_CAPACITY * 4), DRAMConfig(**base)),
        ]
        for other_oram, other_dram in mismatches:
            target = build_interconnect(other_oram, other_dram)
            before = target.state_dict()
            with pytest.raises(ValueError, match="geometry"):
                target.load_state_dict(state)
            assert target.state_dict() == before  # rejected before any write

    def test_checkpoint_without_geometry_still_loads(self):
        oram = ORAMConfig(capacity_bytes=SMALL_CAPACITY, levels=6, bucket_size=4)
        dram = DRAMConfig(model="channel", num_channels=4)
        source = build_interconnect(oram, dram)
        source.path_completion(5, 0)
        legacy = source.state_dict()
        del legacy["geometry"]
        target = build_interconnect(oram, dram)
        target.load_state_dict(legacy)
        assert target.state_dict() == source.state_dict()

    def test_backend_restore_surfaces_geometry_mismatch(self):
        oram = ORAMConfig(levels=7, bucket_size=4, stash_blocks=50, utilization=0.5)

        def backend(subtree_levels):
            dram = DRAMConfig(
                model="channel", num_channels=4, subtree_levels=subtree_levels
            )
            tree = PathORAM(oram, DeterministicRng(8), populate=False)
            return ORAMBackend(tree, dram, BaselineScheme())

        source = backend(2)
        source.demand_access(3, now=0, is_write=False)
        payload = dump_backend_state(source)
        restore_backend_state(backend(2), payload)
        with pytest.raises(CheckpointError, match="geometry"):
            restore_backend_state(backend(3), payload)

    def test_flat_checkpoint_is_unchanged(self):
        """The flat model's counters come back from a checkpoint unchanged
        (they used to be dropped: its ``state_dict()`` was empty)."""
        oram = ORAMConfig(levels=6, bucket_size=4, treetop_levels=4)
        source = build_interconnect(oram, DRAMConfig())
        for leaf in range(9):
            source.path_completion(leaf, 0)
        source.note_untracked(5)
        state = json.loads(json.dumps(source.state_dict()))
        assert state["streamed_paths"] == 9 and state["untracked_paths"] == 5
        assert state["treetop_hits"] == 4 * 14 and state["treetop_bytes_saved"] > 0
        target = build_interconnect(oram, DRAMConfig())
        target.load_state_dict(state)
        assert target.state_dict() == source.state_dict()
        assert target.summary() == source.summary()
        # A document written before the flat model kept state restores at zero.
        legacy = build_interconnect(oram, DRAMConfig())
        legacy.load_state_dict({})
        assert legacy.summary() == build_interconnect(oram, DRAMConfig()).summary()


class TestPerLeafRetention:
    def test_streaming_distinct_leaves_retains_no_plan(self):
        """Regression: ``PhysicalLayout._path_cache`` kept a 26-address
        tuple (~3 KB) for every distinct leaf ever streamed."""
        oram = ORAMConfig(levels=13, bucket_size=4)
        assert oram.nominal_levels + 1 == 26
        interconnect = build_interconnect(
            oram, DRAMConfig(model="channel", num_channels=4)
        )
        now = interconnect.path_completion(0, 0)  # bank dicts reach full size
        leaves = 5000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for leaf in range(1, leaves + 1):
                now = interconnect.path_completion(leaf, now)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / leaves < 400


class TestMetricsExport:
    def test_per_channel_occupancy_in_registry(self):
        trace = locality_mix_trace(0.8, accesses=1500)
        config = experiment_config()
        fast = dataclasses.replace(
            config, dram=dataclasses.replace(config.dram, model="channel", num_channels=4)
        )
        system = SecureSystem.build("dyn", trace.footprint_blocks, fast)
        system.run(trace)
        registry = collect_system(system)
        names = {instrument.name for instrument in registry}
        for channel in range(4):
            assert f"interconnect.channel{channel}.busy_cycles" in names
            assert f"interconnect.channel{channel}.bus_occupancy_pct" in names
        assert "interconnect.streamed_paths" in names

    def test_occupancy_horizon_covers_trailing_slot_dummies(self):
        """A periodic channel run that ends on dummy slots: every charged
        path's burst is on the numerator, so the horizon is the end of the
        last charged path -- the last slot plus the public cost -- and the
        gauge reads ``100 x paths x burst / horizon``, at most 100%.  (Over
        the last *streamed* completion it read 656% here.)"""
        oram = ORAMConfig(levels=7, bucket_size=4, stash_blocks=50, utilization=0.5)
        backend = PeriodicORAMBackend(
            PathORAM(oram, DeterministicRng(3), populate=False),
            DRAMConfig(model="channel", num_channels=4),
            BaselineScheme(),
            TimingProtectionConfig(interval_cycles=100),
        )
        now = 0
        for addr in range(20):
            now = backend.demand_access(addr, now, False)[0]
        backend.finalize(now + 200 * backend._period)  # idle: the slots fire as dummies
        interconnect = backend.interconnect
        last_slot = backend._next_slot - backend._period
        horizon = last_slot + interconnect.path_cycles
        assert interconnect.last_completion == horizon > now
        paths = interconnect.streamed_paths + interconnect.untracked_paths
        assert paths == backend.stats.memory_accesses + backend.stats.dummy_accesses
        burst = interconnect.path_cycles - interconnect.dram.latency_cycles
        registry = collect_controllers([backend.counters()])
        for channel in range(4):
            occupancy = registry.value(f"interconnect.channel{channel}.bus_occupancy_pct")
            assert occupancy == round(100.0 * paths * burst / horizon, 3)
            assert 0 < occupancy <= 100

    def test_occupancy_horizon_covers_trailing_padding_trains(self):
        """A channel run that ends on health padding (``dummy_path_access``,
        a train of one untracked path and no streamed one): the horizon is
        the last padding train's end, and the gauge stays at most 100%."""
        oram = ORAMConfig(levels=7, bucket_size=4, stash_blocks=50, utilization=0.5)
        backend = ORAMBackend(
            PathORAM(oram, DeterministicRng(3), populate=False),
            DRAMConfig(model="channel", num_channels=4),
            BaselineScheme(),
        )
        now = 0
        for addr in range(20):
            now = backend.demand_access(addr, now, False)[0]
        interconnect = backend.interconnect
        streamed_end = interconnect.last_completion
        for _ in range(200):
            end = backend.dummy_path_access(backend.busy_until)
        assert interconnect.last_completion == end > streamed_end
        paths = interconnect.streamed_paths + interconnect.untracked_paths
        assert paths == backend.stats.memory_accesses
        burst = interconnect.path_cycles - interconnect.dram.latency_cycles
        registry = collect_controllers([backend.counters()])
        for channel in range(4):
            occupancy = registry.value(f"interconnect.channel{channel}.bus_occupancy_pct")
            assert occupancy == round(100.0 * paths * burst / end, 3)
            assert 0 < occupancy <= 100

    def test_sharded_bank_exports_per_shard(self):
        trace = locality_mix_trace(0.8, accesses=1500)
        config = experiment_config()
        fast = dataclasses.replace(
            config, dram=dataclasses.replace(config.dram, model="channel", num_channels=2)
        )
        system = SecureSystem.build(
            "dyn", trace.footprint_blocks, fast, num_shards=2
        )
        system.run(trace)
        registry = collect_system(system)
        names = {instrument.name for instrument in registry}
        assert "interconnect.shard0.channel0.busy_cycles" in names
        assert "interconnect.shard1.channel1.busy_cycles" in names


# --------------------------------------------- parallel runtime composition
class TestParallelRuntimeWithChannels:
    def test_worker_processes_honor_the_channel_model(self, tmp_path):
        """The channel interconnect plumbs through ShardSpec pickling:
        worker processes rebuild it from the config alone and the merged
        result stays bit-identical to the serial sharded bank."""
        from repro.config import SystemConfig
        from repro.parallel import ParallelShardRuntime, run_serial_reference

        rng = DeterministicRng(9)
        requests = []
        now = 0
        for index in range(200):
            now += rng.randint(1, 40)
            requests.append((rng.randint(0, 127), now, index % 5 == 0))
        config = SystemConfig()
        config = dataclasses.replace(
            config,
            dram=dataclasses.replace(config.dram, model="channel", num_channels=4),
        )
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
