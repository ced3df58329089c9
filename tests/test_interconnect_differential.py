"""Differential test: the ganged plan + fused scheduler vs a level-by-level
planner and ``C`` independent per-request channel schedulers.

The reference below is the pre-fusion implementation re-derived for the
bucket-striped layout, kept here (and only here) as an oracle:

* :func:`reference_address_of` places one bucket at a time, with each
  tier's first row *counted* from the layout's definition (tier ``t``
  index ``x`` on bank ``(x + t) % B``, row ``x // B`` of the tier's own
  row range, every tier starting on a fresh row) instead of read from the
  layout's table;
* :func:`reference_plan` walks every level of the path and, channel by
  channel, records where that channel's stripe of the bucket lives --
  the same ``(bank, row)`` on every channel -- coalescing consecutive
  repeats and adding up the stripe's bytes;
* :class:`ReferenceInterconnect` keeps one :class:`ChannelState` *per
  channel* and schedules each channel's plan through the old
  ``array_access`` / ``reserve_bus`` rules, one call and one counter
  update per request, ``busy_cycles`` / ``bytes_moved`` counted event by
  event.  That the ``C`` states never diverge is the lockstep argument of
  DESIGN.md section 11, checked rather than assumed.
"""

import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig, ORAMConfig, TimingProtectionConfig
from repro.memory.interconnect import (
    ChannelInterconnect,
    ChannelState,
    MemoryInterconnect,
)
from repro.memory.oram_backend import ORAMBackend
from repro.memory.periodic import PeriodicORAMBackend
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme
from repro.oram.tree import PhysicalLayout
from repro.utils.rng import DeterministicRng


# ------------------------------------------------------------- the reference
@functools.lru_cache(maxsize=None)
def rows_before_tier(tier, num_banks, subtree_levels):
    """Rows the tiers above ``tier`` occupy, by enumeration."""
    return sum(
        len({index // num_banks for index in range(1 << (above * subtree_levels))})
        for above in range(tier)
    )


def reference_address_of(layout, level, leaf):
    """``(bank, row)`` of the bucket at ``level`` on the path to ``leaf``."""
    root_level = level - level % layout.subtree_levels
    tier = root_level // layout.subtree_levels
    index = leaf >> (layout.levels - root_level)
    first_row = rows_before_tier(tier, layout.num_banks, layout.subtree_levels)
    return (index + tier) % layout.num_banks, first_row + index // layout.num_banks


def stripe_bytes(bucket_bytes, channels, channel):
    """Channel ``channel``'s stripe of one bucket, dealt byte-evenly."""
    return bucket_bytes // channels + (channel < bucket_bytes % channels)


def reference_plan(layout, leaf, k, bucket_bytes, dram):
    """The level-by-level planner for the path to nominal ``leaf``:
    ``((channel, requests, bus cycles, bytes), ...)``, one per channel."""
    channels = dram.num_channels
    accesses = {channel: [] for channel in range(channels)}
    path_bytes = dict.fromkeys(range(channels), 0)
    for level in range(k, layout.levels + 1):
        bank, row = reference_address_of(layout, level, leaf)
        for channel in range(channels):
            requests = accesses[channel]
            # Buckets in the same subtree tile share a (bank, row): one
            # row activation streams the whole tile segment.
            if not requests or requests[-1] != (bank, row):
                requests.append((bank, row))
            path_bytes[channel] += stripe_bytes(bucket_bytes, channels, channel)
    # The gang is one bus C channels wide: the path's bytes cross it once.
    cycles = max(
        1, math.ceil(sum(path_bytes.values()) / (channels * dram.bytes_per_cycle))
    )
    return tuple(
        (channel, tuple(accesses[channel]), cycles, path_bytes[channel])
        for channel in range(channels)
    )


def offchip_plan(interconnect, leaf):
    """The ``(bank, row)`` list the gang activates for the path to a
    functional ``leaf``: one per off-chip tier, read from
    :meth:`PhysicalLayout.path_tiles`, the placement rule
    :meth:`ChannelInterconnect.path_completion` runs inline."""
    return interconnect.layout.path_tiles(
        leaf << interconnect._leaf_shift, interconnect.treetop_levels
    )


class CountingChannel(ChannelState):
    """A channel that counts its array accesses and what its bus carried
    event by event (the production gang derives the first from its row hits
    and misses, the other two from the path count)."""

    __slots__ = ("requests", "busy_cycles", "bytes_moved")

    def __init__(self):
        super().__init__()
        self.requests = self.busy_cycles = self.bytes_moved = 0

    def state_dict(self):
        state = super().state_dict()
        state.update(
            requests=self.requests,
            busy_cycles=self.busy_cycles,
            bytes_moved=self.bytes_moved,
        )
        return state


def array_access(state, dram, bank, row, now):
    """Old ``ChannelState.array_access``: returns when the data is ready."""
    open_page = dram.page_policy == "open"
    ready = state.bank_free.get(bank, 0)
    start = ready if ready > now else now
    state.bank_wait_cycles += start - now
    if open_page and state.open_row.get(bank) == row:
        latency = dram.row_hit_cycles
        state.row_hits += 1
    else:
        latency = dram.latency_cycles
        state.row_misses += 1
    done = start + latency
    state.bank_free[bank] = done
    if open_page:
        state.open_row[bank] = row
    state.requests += 1
    return done


def reserve_bus(state, ready, cycles, nbytes):
    """Old ``ChannelState.reserve_bus``: stream once data is ``ready``."""
    start = state.bus_free if state.bus_free > ready else ready
    state.bus_free = start + cycles
    state.busy_cycles += cycles
    state.bytes_moved += nbytes
    return state.bus_free


class ReferenceInterconnect(ChannelInterconnect):
    """The level-by-level planner and ``C`` independently scheduled
    channels behind the production counters, so ``summary()`` /
    ``state_dict()`` compare like for like."""

    def __init__(self, oram, dram):
        super().__init__(oram, dram)
        self.channels = [CountingChannel() for _ in range(dram.num_channels)]

    def _plan(self, leaf):
        return reference_plan(
            self.layout,
            leaf << self._leaf_shift,
            self.treetop_levels,
            self.bucket_bytes,
            self.dram,
        )

    def path_completion(self, leaf, start):
        completion = read_done = start
        for channel_index, requests, cycles, nbytes in self._plan(leaf):
            state = self.channels[channel_index]
            first_ready = 0
            last_ready = 0
            for bank, row in requests:
                done = array_access(state, self.dram, bank, row, start)
                if not first_ready:
                    first_ready = done
                if done > last_ready:
                    last_ready = done
            bus_done = reserve_bus(state, first_ready, cycles, nbytes)
            channel_done = bus_done if bus_done > last_ready else last_ready
            if channel_done > completion:
                completion = channel_done
            # the read half is on chip when the write-back half starts
            read_done = max(read_done, bus_done - cycles // 2, last_ready)
        self.ready = read_done
        self.early_return_cycles += completion - read_done
        self.streamed_paths += 1
        self.streamed_cycles_total += completion - start
        if completion > self.last_completion:
            self.last_completion = completion
        return completion

    def note_untracked(self, count):
        """A path charged at the public cost still crosses every bus."""
        super().note_untracked(count)
        for channel, _requests, cycles, nbytes in self._plan(0):  # any leaf
            self.channels[channel].busy_cycles += count * cycles
            self.channels[channel].bytes_moved += count * nbytes

    def state_dict(self):
        state = MemoryInterconnect.state_dict(self)
        state["geometry"] = self._geometry()
        state["channels"] = [channel.state_dict() for channel in self.channels]
        return state


# ------------------------------------------------------------------ the test
def configs(
    levels, bucket_size, capacity_shift, channels, banks, subtree_levels, k, policy
):
    oram = ORAMConfig(
        capacity_bytes=1 << capacity_shift, levels=levels, bucket_size=bucket_size
    )
    oram = dataclasses.replace(oram, treetop_levels=min(k, oram.nominal_levels - 1))
    dram = DRAMConfig(
        model="channel",
        num_channels=channels,
        num_banks=banks,
        subtree_levels=subtree_levels,
        page_policy=policy,
        row_hit_latency_cycles=30,
    )
    return oram, dram


GEOMETRY = dict(
    levels=st.integers(min_value=4, max_value=9),
    bucket_size=st.integers(min_value=1, max_value=5),
    # 256 KB .. 2 MB nominal capacity: 9 to 15 nominal levels, so every
    # subtree height below meets both full and partial bottom tiers.
    capacity_shift=st.integers(min_value=18, max_value=21),
    channels=st.integers(min_value=1, max_value=5),
    banks=st.sampled_from([1, 2, 3, 8, 1 << 30]),
    subtree_levels=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=0, max_value=7),
    policy=st.sampled_from(["open", "closed"]),
    seed=st.integers(min_value=0, max_value=2**20),
)


class TestAgainstTheOldPlanner:
    @given(**GEOMETRY)
    @settings(max_examples=60, deadline=None)
    def test_plans_equal_element_for_element(self, seed, **geometry):
        """Every channel's request list is the gang's plan, every burst the
        gang's, and the stripes add up to the path."""
        oram, dram = configs(**geometry)
        fused = ChannelInterconnect(oram, dram)
        rng = random.Random(seed)
        leaves = {0, (1 << oram.levels) - 1}
        leaves.update(rng.randrange(1 << oram.levels) for _ in range(20))
        for leaf in leaves:
            reference = reference_plan(
                fused.layout,
                leaf << fused._leaf_shift,
                oram.treetop_levels,
                fused.bucket_bytes,
                dram,
            )
            assert len(reference) == dram.num_channels
            for channel, requests, cycles, nbytes in reference:
                assert list(requests) == offchip_plan(fused, leaf)
                assert cycles == fused._burst_cycles
                assert nbytes == fused._stripe_bytes[channel]
            assert sum(nbytes for *_, nbytes in reference) == fused.bytes_per_path

    @given(**GEOMETRY)
    @settings(max_examples=40, deadline=None)
    def test_schedulers_agree_after_200_paths(self, seed, **geometry):
        oram, dram = configs(**geometry)
        fused = ChannelInterconnect(oram, dram)
        reference = ReferenceInterconnect(oram, dram)
        rng = random.Random(seed)
        now = 0
        for _ in range(200):
            leaf = rng.randrange(1 << oram.levels)
            # Mostly back-to-back issue (bank and bus conflicts), sometimes
            # overlapping the previous path, sometimes after an idle gap.
            start = max(0, now + rng.choice((0, 0, 0, -50, 7, 400)))
            now = fused.path_completion(leaf, start)
            assert now == reference.path_completion(leaf, start)
            assert fused.ready == reference.ready
            untracked = rng.choice((0, 0, 1, 3))  # PosMap walk, evictions
            fused.note_untracked(untracked)
            reference.note_untracked(untracked)
        assert fused.summary() == reference.summary()
        assert fused.state_dict() == reference.state_dict()
        # lockstep: C independently scheduled channels never diverged
        first = reference.channels[0].state_dict()
        for channel in reference.channels[1:]:
            assert {**channel.state_dict(), "bytes_moved": 0} == {**first, "bytes_moved": 0}

    @pytest.mark.parametrize("treetop", [0, 4])
    def test_path_completion_activates_the_layouts_tiles(self, treetop):
        """``path_completion`` runs the placement rule inline; for every
        leaf the ``(bank, row)`` sequence it activates is ``path_tiles``'s
        off-chip suffix, in order, and an out-of-range leaf is refused."""
        oram, dram = configs(6, 4, 20, 4, 8, 3, treetop, "open")
        fused = ChannelInterconnect(oram, dram)
        assert fused.treetop_levels == treetop

        class Recording(dict):
            def __setitem__(self, bank, row):
                activated.append((bank, row))
                super().__setitem__(bank, row)

        fused.gang.open_row = Recording()
        now = 0
        for leaf in range(1 << oram.levels):
            activated = []
            now = fused.path_completion(leaf, now)
            assert activated == offchip_plan(fused, leaf)
        with pytest.raises(ValueError):
            fused.path_completion(1 << oram.levels, now)

    def test_layout_addresses_match_the_counted_reference(self):
        """``address_of`` / ``path_addresses`` are views of the same rule."""
        oram, dram = configs(6, 4, 20, 4, 8, 3, 0, "open")
        layout = ChannelInterconnect(oram, dram).layout
        assert (layout.levels + 1) % 3 != 0  # partial bottom tier
        for leaf in (0, 1, 777, (1 << layout.levels) - 1):
            path = layout.path_addresses(leaf)
            assert len(path) == layout.levels + 1
            for level, address in enumerate(path):
                want = reference_address_of(layout, level, leaf)
                assert (address.bank, address.row) == want
                assert layout.address_of(level, leaf) == address


# ------------------------------------------------- the striped layout itself
def tier_tiles(layout):
    """Every tile of every tier: ``{tier: [(bank, row), ...]}`` by index."""
    h = layout.subtree_levels
    return {
        root_level // h: [
            reference_address_of(layout, root_level, index << (layout.levels - root_level))
            for index in range(1 << root_level)
        ]
        for root_level in range(0, layout.levels + 1, h)
    }


class TestStripedLayout:
    @given(
        levels=st.integers(min_value=1, max_value=11),
        banks=st.sampled_from([1, 2, 3, 8, 1 << 30]),
        subtree_levels=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_tile_map_is_injective_and_even_over_the_banks(
        self, levels, banks, subtree_levels
    ):
        layout = PhysicalLayout(levels, banks, subtree_levels)
        seen = set()
        for tier, tiles in tier_tiles(layout).items():
            root_level = tier * subtree_levels
            for index, tile in enumerate(tiles):
                leaf = index << (levels - root_level)
                assert layout.path_tiles(leaf, root_level)[0] == tile
            assert seen.isdisjoint(tiles) and len(set(tiles)) == len(tiles)
            seen.update(tiles)
            per_bank = {}
            for bank, _row in tiles:
                per_bank[bank] = per_bank.get(bank, 0) + 1
            assert max(per_bank.values()) <= len(tiles) // banks + 1

    @given(**GEOMETRY)
    @settings(max_examples=40, deadline=None)
    def test_deep_tiers_land_on_distinct_banks(self, seed, **geometry):
        """The trap of DESIGN.md section 11: the leaf embedding zeroes the
        low bits of the deep tiers' within-tier index, so ``index % B`` is
        the same tier after tier; the per-tier rotation must keep any two
        such tiers fewer than ``B`` apart on different banks."""
        oram, dram = configs(**geometry)
        fused = ChannelInterconnect(oram, dram)
        layout, banks, h = fused.layout, dram.num_banks, dram.subtree_levels
        leaf = random.Random(seed).randrange(1 << oram.levels) << fused._leaf_shift
        tiles = layout.path_tiles(leaf)
        residue = [(leaf >> (layout.levels - tier * h)) % banks for tier in range(len(tiles))]
        for near in range(len(tiles)):
            for far in range(near + 1, min(near + banks, len(tiles))):
                if residue[near] == residue[far]:
                    assert tiles[near][0] != tiles[far][0]

    @given(**GEOMETRY)
    @settings(max_examples=60, deadline=None)
    def test_an_idle_gang_streams_a_path_in_exactly_the_public_cost(
        self, seed, **geometry
    ):
        """On a fresh interconnect (idle, no open rows) a path completes at
        ``T`` unless one bank serves more tiles back to back than fit under
        the burst: ``n x latency <= T`` iff ``n <= (T - latency) // latency
        + 1``."""
        oram, dram = configs(**geometry)
        fused = ChannelInterconnect(oram, dram)
        rng = random.Random(seed)
        leaf = rng.randrange(1 << oram.levels)
        start = rng.randrange(10_000)
        per_bank = {}
        for bank, _row in offchip_plan(fused, leaf):
            per_bank[bank] = per_bank.get(bank, 0) + 1
        latency = dram.latency_cycles
        fits = (fused.path_cycles - latency) // latency + 1
        streamed = fused.path_completion(leaf, start) - start
        if max(per_bank.values()) <= fits:
            assert streamed == fused.path_cycles
        else:
            assert streamed == max(per_bank.values()) * latency > fused.path_cycles

    @given(**GEOMETRY)
    @settings(max_examples=40, deadline=None)
    def test_channel_bytes_add_up_to_every_charged_path(self, seed, **geometry):
        oram, dram = configs(**geometry)
        fused = ChannelInterconnect(oram, dram)
        rng = random.Random(seed)
        now = 0
        for _ in range(50):
            now = fused.path_completion(rng.randrange(1 << oram.levels), now)
            fused.note_untracked(rng.choice((0, 1, 2)))
        reports = fused.state_dict()["channels"]
        paths = fused.streamed_paths + fused.untracked_paths
        assert sum(r["bytes_moved"] for r in reports) == paths * fused.bytes_per_path
        stripes = [r["bytes_moved"] for r in reports]
        assert max(stripes) - min(stripes) <= paths * fused.offchip_levels
        assert {r["busy_cycles"] for r in reports} == {
            paths * (fused.path_cycles - dram.latency_cycles)
        }


class TestEveryChargedPathReachesTheInterconnect:
    """Bugfix: a periodic slot dummy is a path the controller charges, and
    the interconnect never heard of it; under the channel model no untracked
    path (PosMap walk, background eviction, dummy) loaded any channel."""

    @staticmethod
    def drive(backend, seed, steps=300):
        rng = random.Random(seed)
        now = 0
        for step in range(steps):
            choice = rng.randrange(4)
            addr = 1 + rng.randrange(64)
            if choice == 0:
                now, _ = backend.demand_access(addr, now, bool(step % 2))
            elif choice == 1:
                backend.evict_line(addr, dirty=True, now=now)
            elif choice == 2:
                backend.prefetch_access(addr, now)
            else:
                now += rng.randrange(5_000)
        backend.finalize(now + 20_000)

    @given(
        periodic=st.booleans(),
        model=st.sampled_from(["flat", "channel"]),
        channels=st.sampled_from([1, 3, 4]),
        k=st.sampled_from([0, 3]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_paths_and_bytes_balance(self, periodic, model, channels, k, seed):
        oram = ORAMConfig(
            levels=7, bucket_size=4, stash_blocks=50, utilization=0.5, treetop_levels=k
        )
        dram = DRAMConfig(model=model, num_channels=channels if model == "channel" else 1)
        tree = PathORAM(oram, DeterministicRng(seed), populate=False)
        args = (tree, dram, BaselineScheme())
        if periodic:
            backend = PeriodicORAMBackend(*args, TimingProtectionConfig(interval_cycles=100))
        else:
            backend = ORAMBackend(*args)
        self.drive(backend, seed)
        interconnect, stats = backend.interconnect, backend.stats
        charged = stats.memory_accesses + stats.dummy_accesses
        assert periodic is False or stats.dummy_accesses > 0
        assert interconnect.streamed_paths + interconnect.untracked_paths == charged
        assert interconnect.state_dict()["treetop_hits"] == k * charged
        if model == "channel":
            reports = interconnect.state_dict()["channels"]
            assert sum(r["bytes_moved"] for r in reports) == (
                charged * interconnect.bytes_per_path
            )
