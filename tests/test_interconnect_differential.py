"""Differential test: closed-form per-tier plans + fused scheduler vs the
level-by-level planner and per-request scheduler they replaced.

The reference below is the pre-refactor implementation, kept here (and
only here) as an oracle:

* :func:`reference_address_of` places one bucket at a time, with the
  per-channel slot offsets *counted* from the layout's definition
  (subtrees in breadth-first order, tier ``t`` index ``x`` on channel
  ``(x + t) % C``, each channel packing densely) instead of read from
  the layout's closed-form table;
* :func:`reference_plan` walks every level of the path, groups the
  addresses by channel and coalesces consecutive repeats -- the old
  ``ChannelInterconnect._plan`` body;
* :class:`ReferenceInterconnect` schedules a plan through the old
  ``ChannelState.array_access`` / ``reserve_bus`` methods, one call and
  one counter update per request.
"""

import dataclasses
import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig, ORAMConfig
from repro.memory.interconnect import ChannelInterconnect
from repro.memory.timing import transfer_cycles


# ------------------------------------------------------------- the reference
@functools.lru_cache(maxsize=None)
def slots_before_tier(tier, channel, num_channels, subtree_levels):
    """Slots ``channel`` hands out to tiers above ``tier``, by enumeration."""
    return sum(
        1
        for above in range(tier)
        for index in range(1 << (above * subtree_levels))
        if (index + above) % num_channels == channel
    )


def reference_address_of(layout, level, leaf):
    """``(channel, bank, row)`` of the bucket at ``level`` on the path to ``leaf``."""
    root_level = level - level % layout.subtree_levels
    tier = root_level // layout.subtree_levels
    index = leaf >> (layout.levels - root_level)
    channel = (index + tier) % layout.num_channels
    # Within a tier a channel owns every C-th subtree, so ``index // C``
    # of its subtrees come before this one.
    slot = (
        slots_before_tier(tier, channel, layout.num_channels, layout.subtree_levels)
        + index // layout.num_channels
    )
    return channel, slot % layout.num_banks, slot // layout.num_banks


def reference_plan(layout, leaf, k, bucket_bytes, dram):
    """The old level-by-level planner for the path to nominal ``leaf``."""
    accesses = {}
    path_bytes = {}
    for level in range(k, layout.levels + 1):
        channel, bank, row = reference_address_of(layout, level, leaf)
        requests = accesses.setdefault(channel, [])
        # Buckets in the same subtree tile share a (bank, row): one
        # row activation streams the whole tile segment.
        if not requests or requests[-1] != (bank, row):
            requests.append((bank, row))
        path_bytes[channel] = path_bytes.get(channel, 0) + bucket_bytes
    return tuple(
        (
            channel,
            tuple(requests),
            transfer_cycles(dram, path_bytes[channel]),
            path_bytes[channel],
        )
        for channel, requests in sorted(accesses.items())
    )


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
    """The old planner and scheduler over the production state objects, so
    ``summary()`` / ``state_dict()`` compare like for like."""

    def _plan(self, leaf):
        return reference_plan(
            self.layout,
            leaf << self._leaf_shift,
            self.treetop_levels,
            self.bucket_bytes,
            self.dram,
        )

    def path_completion(self, leaf, start):
        completion = start
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
        self.streamed_paths += 1
        self.streamed_cycles_total += completion - start
        self.treetop_hits += self.treetop_levels
        self.treetop_bytes_saved += self.treetop_levels * self.bucket_bytes
        if completion > self.last_completion:
            self.last_completion = completion
        return completion


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
        oram, dram = configs(**geometry)
        fused = ChannelInterconnect(oram, dram)
        rng = random.Random(seed)
        leaves = {0, (1 << oram.levels) - 1}
        leaves.update(rng.randrange(1 << oram.levels) for _ in range(20))
        for leaf in leaves:
            assert fused._plan(leaf) == reference_plan(
                fused.layout,
                leaf << fused._leaf_shift,
                oram.treetop_levels,
                fused.bucket_bytes,
                dram,
            )

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
        assert fused.summary() == reference.summary()
        assert fused.state_dict() == reference.state_dict()

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
                assert (address.channel, address.bank, address.row) == want
                assert layout.address_of(level, leaf) == address
