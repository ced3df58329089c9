"""Unit tests for the periodic (timing-channel protected) ORAM backend."""

import dataclasses
from dataclasses import replace

import pytest

import repro.controller.sharded as sharded
from repro.config import DRAMConfig, ORAMConfig, SystemConfig, TimingProtectionConfig
from repro.health.breaker import HealthPolicy
from repro.memory.periodic import PeriodicORAMBackend
from repro.observability import InMemoryRecorder
from repro.oram.checkpoint import dump_backend_state, restore_backend_state
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace


def make_backend(interval=100, oram=None, dram=None):
    config = oram or ORAMConfig(levels=7, bucket_size=4, stash_blocks=50, utilization=0.5)
    return PeriodicORAMBackend(
        PathORAM(config, DeterministicRng(4), populate=False),
        dram or DRAMConfig(),
        BaselineScheme(),
        TimingProtectionConfig(interval_cycles=interval),
    )


class TestSchedule:
    def test_consecutive_accesses_spaced_by_interval(self):
        backend = make_backend(interval=100)
        first, _ = backend.demand_access(1, now=0, is_write=False)
        second, _ = backend.demand_access(2, now=first, is_write=False)
        # The second access starts exactly Oint after the first finishes.
        gap = second - first
        assert gap >= 100 + backend.interconnect.path_cycles

    def test_idle_periods_filled_with_dummies(self):
        backend = make_backend(interval=100)
        first, _ = backend.demand_access(1, now=0, is_write=False)
        # Arrive a long time later: slots in between must have fired.
        idle = 20 * (backend.interconnect.path_cycles + 100)
        backend.demand_access(2, now=first + idle, is_write=False)
        assert backend.stats.dummy_accesses >= 18

    def test_request_waits_for_next_slot(self):
        backend = make_backend(interval=1000)
        first, _ = backend.demand_access(1, now=0, is_write=False)
        # A request arriving mid-interval is delayed to the slot.
        second, _ = backend.demand_access(2, now=first + 1, is_write=False)
        assert second >= first + 1000

    def test_finalize_accounts_trailing_dummies(self):
        backend = make_backend(interval=100)
        backend.demand_access(1, now=0, is_write=False)
        before = backend.stats.dummy_accesses
        backend.finalize(now=50 * (backend.interconnect.path_cycles + 100))
        assert backend.stats.dummy_accesses > before


class TestSlotGridInvariant:
    """Regression tests for the timing-slot drift bug.

    The schedule used to be reset from each access's *completion* cycle,
    so any access train that ran long (PosMap misses, background
    evictions) or any request arriving mid-slot pushed every later access
    off the public grid -- data-dependent jitter in what is supposed to be
    a fixed cadence.  The invariant now: every access, real or dummy,
    issues at a cycle congruent to 0 modulo ``path_cycles + Oint``.
    """

    @staticmethod
    def drive_bursty_mix(backend):
        """Back-to-back demands, dirty write-backs, prefetches, and idle
        stretches that land arrivals mid-slot; returns the recorder.

        *backend* is a lone controller or a bank: every span and every
        slot dummy must lie on the grid of the shard it names."""
        recorder = InMemoryRecorder()
        backend.set_recorder(recorder)
        periods = {shard.shard_index: shard._period for shard in backend.shards}
        period = max(periods.values())
        rng = DeterministicRng(9)
        now = 0
        for i in range(60):
            choice = rng.randbelow(4)
            if choice == 0:
                now, _ = backend.demand_access(
                    1 + (i % 32), now=now, is_write=bool(i % 2)
                )
            elif choice == 1:
                backend.evict_line(1 + (i % 32), dirty=True, now=now)
                now = backend.busy_until
            elif choice == 2:
                result = backend.prefetch_access(33 + (i % 16), now=now)
                if result is not None:
                    now, _ = result
            else:
                now += 1 + rng.randbelow(3 * period)
        backend.finalize(now + 5 * period)
        spans = [r for r in recorder.records if "event" not in r]
        assert len(spans) >= 20
        assert all(r["start"] % periods[r["shard"]] == 0 for r in spans)
        # The dummies covering unused/expired slots are on the grid too.
        dummies = [r for r in recorder.records if r.get("event") == "periodic_dummy"]
        assert dummies
        assert all(r["slot"] % periods[r["shard"]] == 0 for r in dummies)
        assert {r["shard"] for r in spans + dummies} == set(periods)
        return recorder

    def test_issue_times_congruent_mod_period(self):
        self.drive_bursty_mix(make_backend(interval=100))

    @pytest.mark.parametrize("model, k", [("flat", 0), ("channel", 0), ("channel", 4)])
    def test_trains_issue_on_the_grid_and_activate_inside_their_slot(self, model, k):
        """Multi-path trains (a 3-entry PosMap cache: most requests walk)
        under both interconnects.  The channel model's train may start
        activating ``W`` cycles before the controller's clock runs out --
        but never before its slot: the grid leaves the controller idle for
        ``Oint`` ahead of every slot, so the slot is the train's first
        activation and nothing of the train is visible earlier."""
        backend = make_backend(
            interval=100,
            oram=ORAMConfig(
                levels=7, bucket_size=4, stash_blocks=50, utilization=0.5,
                posmap_entries_per_block=4, posmap_cache_entries=3, treetop_levels=k,
            ),
            dram=DRAMConfig(model=model, num_channels=4 if model == "channel" else 1),
        )
        interconnect = backend.interconnect
        trains, activations = [], []
        train, path_completion = interconnect.train, interconnect.path_completion

        def spy_train(arrival, busy_until, evictions, extra, leaf):
            marks = train(arrival, busy_until, evictions, extra, leaf)
            trains.append((arrival, busy_until, extra, marks))
            return marks

        def spy_path(leaf, start, *head):
            activations.append(start - sum(head))
            return path_completion(leaf, start, *head)

        interconnect.train, interconnect.path_completion = spy_train, spy_path
        recorder = self.drive_bursty_mix(backend)
        assert len(trains) == len(activations) == recorder.span_count()
        assert sum(extra > 0 for _, _, extra, _ in trains) >= 10
        for (slot, busy_until, _extra, marks), activate in zip(trains, activations):
            assert slot % backend._period == 0
            assert busy_until + backend.interval <= slot
            assert marks[0] == slot <= activate
        if model == "channel":  # the demand path did run ahead of its turn
            assert interconnect.hidden_latency_cycles > 0

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_every_shard_of_a_periodic_bank_keeps_its_own_grid(self, width):
        bank = sharded.build_bank("oram", 64, SystemConfig(), width, periodic=True)
        assert all(isinstance(s, PeriodicORAMBackend) for s in bank.shards)
        self.drive_bursty_mix(bank)

    def test_mid_slot_arrival_burns_open_slot_as_dummy(self):
        backend = make_backend(interval=100)
        period = backend.interconnect.path_cycles + backend.interval
        backend.demand_access(1, now=0, is_write=False)
        open_slot = backend._next_slot
        assert open_slot % period == 0
        before = backend.stats.dummy_accesses
        # Arriving strictly after the slot opened cannot use it: in
        # hardware that slot's access already began (as a dummy).
        backend.demand_access(2, now=open_slot + 7, is_write=False)
        assert backend.stats.dummy_accesses == before + 1
        assert backend._next_slot % period == 0


class TestPaddingOnTheGrid:
    """A health plane on a periodic bank: a quarantined shard pads each
    access with a dummy path, and that padding path takes the shard's next
    grid slot, like a request.  (Issued at the demand's completion, it
    would fall off the grid: a second, data-dependent cadence.)"""

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_padding_trains_arrive_at_grid_points(self, width):
        bank = sharded.build_bank(
            "oram", 256, SystemConfig(), width, periodic=True,
            health_policy=HealthPolicy(),
        )
        padding = {shard.shard_index: [] for shard in bank.shards}
        for shard in bank.shards:

            def spy(arrival, busy_until, evictions, extra, leaf,
                    _train=shard.interconnect.train, _log=padding[shard.shard_index]):
                if leaf is None:  # only dummy_path_access trains carry no leaf
                    _log.append((arrival, busy_until))
                return _train(arrival, busy_until, evictions, extra, leaf)

            shard.interconnect.train = spy
        bank.quarantine_shard(0)
        rng = DeterministicRng(3)
        now = 0
        for _ in range(400):
            now += rng.randbelow(2_000)
            done, _ = bank.demand_access(rng.randbelow(bank.num_blocks), now, False)
            now = max(now, done)
        shard = bank.shards[0]
        trains = padding[0]
        assert trains and len(trains) == shard.padding_accesses
        assert not any(padding[index] for index in range(1, width))
        for slot, busy_until in trains:
            assert slot % shard._period == 0
            assert busy_until + shard.interval <= slot


class TestObliviousSchedule:
    def test_adversary_sees_uniform_schedule_regardless_of_demand(self):
        """The access *count* over a horizon is determined by Oint alone."""
        horizon = 40 * 1448  # ~40 slots

        busy = make_backend(interval=100)
        now = 0
        for i in range(10):
            now, _ = busy.demand_access(i + 1, now=now, is_write=False)
        busy.finalize(horizon)

        idle = make_backend(interval=100)
        idle.demand_access(1, now=0, is_write=False)
        idle.finalize(horizon)

        # Counting charged dummies too (some are charged without a
        # functional path read), total accesses match within rounding.
        busy_total = busy.stats.demand_requests + busy.stats.dummy_accesses + busy.stats.posmap_accesses
        idle_total = idle.stats.demand_requests + idle.stats.dummy_accesses + idle.stats.posmap_accesses
        assert abs(busy_total - idle_total) <= 3

    def test_writeback_rides_schedule(self):
        backend = make_backend(interval=100)
        backend.demand_access(1, now=0, is_write=False)
        busy_before = backend.busy_until
        backend.evict_line(1, dirty=True, now=busy_before)
        assert backend.busy_until >= busy_before + 100
        assert backend.stats.write_accesses == 1


class TestRestoreKeepsTheGrid:
    """``_next_slot`` is derived from the restored ``busy_until``; left at
    0, a restored shard counted every slot since cycle 0 as a new dummy."""

    @staticmethod
    def drive(backend, start, count):
        completion = None
        for index in range(start, start + count):
            completion, _ = backend.demand_access(
                (index * 7) % backend.num_blocks, backend.busy_until + 40, index % 4 == 0
            )
        return completion

    def test_source_and_clone_agree_after_a_restore(self):
        source = make_backend(interval=100)
        self.drive(source, 0, 400)
        clone = make_backend(interval=100)
        restore_backend_state(clone, dump_backend_state(source))
        # The PosMap block cache rides in the checkpoint, so the clone's
        # first walks hit where the source's do.
        assert clone._next_slot == source._next_slot > 0
        assert clone._next_slot % clone._period == 0
        assert clone.stats.dummy_accesses == source.stats.dummy_accesses
        # One more access: same slot, same completion, no phantom dummies.
        assert self.drive(clone, 400, 1) == self.drive(source, 400, 1)
        assert clone.stats.dummy_accesses == source.stats.dummy_accesses
        # ... and they stay in step over an idle gap and a longer run.
        for backend in (source, clone):
            backend.demand_access(3, backend.busy_until + 50 * backend._period, False)
        assert self.drive(clone, 401, 200) == self.drive(source, 401, 200)
        assert clone.stats.dummy_accesses == source.stats.dummy_accesses
        assert clone.oram.dummy_accesses == source.oram.dummy_accesses

    def test_restoring_an_unused_backend_starts_on_slot_zero(self):
        used = make_backend(interval=100)
        self.drive(used, 0, 5)
        restore_backend_state(used, dump_backend_state(make_backend(interval=100)))
        assert used._next_slot == used.busy_until == 0
        used.demand_access(1, 0, False)  # issues at slot 0: nothing burnt
        assert used.stats.dummy_accesses == 0


class TestFunctionalDummyCap:
    """``MAX_FUNCTIONAL_DUMMIES_PER_GAP`` decides which idle-slot dummies
    move blocks, and nothing the adversary sees.

    ``dyn_intvl`` on a locality trace with long compute gaps (most slots
    idle) over a crowded tree (Z=4 at 90% utilization, so the stash is
    rarely empty when a gap opens), at cap 0, 16 and unbounded: the grid
    -- every issue cycle and every dummy slot -- and the whole
    ``SimResult`` except the stash high-water mark are identical; the
    functional dummy count and that high-water mark move, and are pinned.
    """

    CAPS = (0, 16, 1 << 30)

    @staticmethod
    def run_capped(monkeypatch, cap):
        class Capped(PeriodicORAMBackend):
            MAX_FUNCTIONAL_DUMMIES_PER_GAP = cap

        monkeypatch.setattr(sharded, "PeriodicORAMBackend", Capped)
        base = SystemConfig()
        config = replace(base, oram=replace(base.oram, bucket_size=4, utilization=0.9))
        trace = locality_mix_trace(
            0.8, footprint_blocks=2048, accesses=2000, gap_mean=20_000
        )
        system = SecureSystem.build("dyn_intvl", trace.footprint_blocks, config)
        recorder = system.attach_recorder(InMemoryRecorder())
        result = system.run(trace)
        issued = [r["start"] for r in recorder.records if "event" not in r]
        dummies = [
            (r["slot"], r["functional"])
            for r in recorder.records
            if r.get("event") == "periodic_dummy"
        ]
        return result, issued, dummies

    def test_cap_moves_the_stash_not_the_schedule(self, monkeypatch):
        runs = {cap: self.run_capped(monkeypatch, cap) for cap in self.CAPS}
        result, issued, dummies = runs[16]
        assert len(issued) > 1000 and len(dummies) > 10 * len(issued)
        fields = [f.name for f in dataclasses.fields(result)]
        for cap in self.CAPS:
            other, other_issued, other_dummies = runs[cap]
            assert other_issued == issued
            assert [slot for slot, _ in other_dummies] == [slot for slot, _ in dummies]
            assert other.dummy_accesses == result.dummy_accesses
            for name in fields:
                if name != "stash_max_occupancy":
                    assert getattr(other, name) == getattr(result, name), (cap, name)
        functional = {cap: sum(f for _, f in runs[cap][2]) for cap in self.CAPS}
        assert functional == {0: 1752, 16: 16674, 1 << 30: 21932}
        stash_max = {cap: runs[cap][0].stash_max_occupancy for cap in self.CAPS}
        assert stash_max == {0: 81, 16: 69, 1 << 30: 68}
