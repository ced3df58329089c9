"""Unit tests for PrORAM's dynamic super block scheme (Algorithms 1 and 2).

These drive the scheme the way the ORAM backend does -- begin_access,
process_fetch, finish_access -- with a controllable fake LLC (a plain set),
so merge/break decisions can be asserted step by step.
"""

import pytest

from repro.config import ORAMConfig
from repro.core.counters import initial_break_value
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.core.thresholds import AdaptiveThresholdPolicy, StaticThresholdPolicy
from repro.oram.path_oram import PathORAM
from repro.utils.rng import DeterministicRng


class Harness:
    """Mimics the ORAM backend's drive sequence with an explicit LLC set."""

    def __init__(self, max_sbsize=2, policy=None, levels=11, seed=5, break_enabled=True):
        # Note: leaf labels are random, so two singletons can collide onto
        # one leaf and legitimately be treated as a super block (the real
        # hardware behaves the same way).  The 2**11-leaf tree makes that
        # negligible for these short scripted sequences.
        config = ORAMConfig(levels=levels, bucket_size=4, stash_blocks=60, utilization=0.5)
        self.oram = PathORAM(config, DeterministicRng(seed), populate=False)
        self.llc = set()
        self.scheme = DynamicSuperBlockScheme(
            max_sbsize=max_sbsize,
            policy=policy or StaticThresholdPolicy(),
            break_enabled=break_enabled,
        )
        self.scheme.attach(self.oram, lambda addr: addr in self.llc)
        self.scheme.initialize()
        self.oram.populate()

    def miss(self, addr):
        """One demand miss on `addr` (assumed not in the LLC)."""
        assert addr not in self.llc
        members = self.scheme.members_for(addr)
        blocks = self.oram.begin_access(members)
        fetched = {m: blocks[m] for m in members if m not in self.llc}
        fills = self.scheme.process_fetch(addr, members, fetched)
        self.oram.finish_access()
        self.llc.update(fills)
        return fills

    def use(self, addr):
        assert addr in self.llc
        self.scheme.on_llc_hit(addr)

    def evict(self, addr):
        self.llc.remove(addr)
        self.scheme.on_llc_evict(addr)

    def is_pair(self, base):
        return self.oram.position_map.group_is_super_block(base, 2)


class TestMerging:
    def test_no_merging_at_initialization(self):
        h = Harness()
        posmap = h.oram.position_map
        merged = sum(
            1 for base in range(0, posmap.num_blocks - 1, 2)
            if posmap.group_is_super_block(base, 2)
        )
        # Only random leaf collisions (tiny probability per pair).
        assert merged <= posmap.num_blocks // 32

    def test_streaming_pair_merges_after_two_coresidencies(self):
        h = Harness()
        # Pick an unmerged pair.
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        # Pass 1: 0 then 1 -> co-residence observed once (counter 1).
        h.miss(base)
        h.miss(base + 1)
        assert not h.is_pair(base)
        # Pass 2 (after eviction): counter reaches the threshold 2 -> merge.
        h.evict(base)
        h.evict(base + 1)
        h.miss(base)
        h.miss(base + 1)
        assert h.is_pair(base)
        assert h.scheme.stats.merges >= 1
        h.oram.check_invariants()

    def test_merged_pair_fetches_together(self):
        h = Harness()
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        for _ in range(2):
            h.miss(base)
            h.miss(base + 1)
            h.evict(base)
            h.evict(base + 1)
        assert h.is_pair(base)
        h.miss(base)
        # The partner was prefetched into the LLC with the demand fetch.
        assert base + 1 in h.llc
        assert h.oram.position_map.prefetch_bit(base + 1) == 1

    def test_merge_sets_initial_break_counter(self):
        h = Harness()
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        for _ in range(2):
            h.miss(base)
            h.miss(base + 1)
            h.evict(base)
            h.evict(base + 1)
        assert h.is_pair(base)
        from repro.core.counters import bits_to_value

        bits = h.oram.position_map.break_bits(base, 2)
        assert bits_to_value(bits) == initial_break_value(2)

    def test_random_isolated_accesses_never_merge(self):
        h = Harness()
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        # Access only the even member, evicting it each time: the neighbor
        # is never co-resident, so the pair must not merge.
        for _ in range(10):
            h.miss(base)
            h.evict(base)
        assert not h.is_pair(base)

    def test_max_sbsize_respected(self):
        h = Harness(max_sbsize=2)
        base = next(
            b for b in range(0, 200, 4)
            if not h.is_pair(b) and not h.is_pair(b + 2)
        )
        # Merge both pairs, then keep co-using all four blocks.
        for _ in range(6):
            for a in (base, base + 1, base + 2, base + 3):
                if a not in h.llc:
                    h.miss(a)
            for a in (base, base + 1, base + 2, base + 3):
                h.evict(a)
        posmap = h.oram.position_map
        assert not posmap.group_is_super_block(base, 4)


class TestBreaking:
    def _merged_pair(self, h):
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        for _ in range(2):
            h.miss(base)
            h.miss(base + 1)
            h.evict(base)
            h.evict(base + 1)
        assert h.is_pair(base)
        return base

    def test_unused_prefetches_break_the_pair(self):
        h = Harness()
        base = self._merged_pair(h)
        # Repeatedly demand the even member and never touch the prefetched
        # partner: each round is a prefetch miss, decrementing the break
        # counter from its initial value down to a break.
        for _ in range(initial_break_value(2) + 2):
            if base in h.llc:
                h.evict(base)
            if base + 1 in h.llc:
                h.evict(base + 1)
            h.miss(base)
            if not h.is_pair(base):
                break
        assert not h.is_pair(base)
        assert h.scheme.stats.breaks >= 1
        h.oram.check_invariants()

    def test_used_prefetches_keep_the_pair(self):
        h = Harness()
        base = self._merged_pair(h)
        for _ in range(8):
            if base in h.llc:
                h.evict(base)
            if base + 1 in h.llc:
                h.evict(base + 1)
            h.miss(base)
            h.use(base + 1)  # prefetch hit every round
        assert h.is_pair(base)
        assert h.scheme.stats.breaks == 0

    def test_break_disabled_variant_never_breaks(self):
        h = Harness(break_enabled=False)
        base = self._merged_pair(h)
        for _ in range(8):
            if base in h.llc:
                h.evict(base)
            if base + 1 in h.llc:
                h.evict(base + 1)
            h.miss(base)
        assert h.is_pair(base)
        assert h.scheme.stats.breaks == 0

    def test_broken_halves_get_independent_leaves(self):
        h = Harness()
        base = self._merged_pair(h)
        for _ in range(initial_break_value(2) + 2):
            if base in h.llc:
                h.evict(base)
            if base + 1 in h.llc:
                h.evict(base + 1)
            h.miss(base)
            if not h.is_pair(base):
                break
        posmap = h.oram.position_map
        # Almost surely different; with 2**8 leaves a collision is possible
        # but the group must at least not be *treated* as a super block by
        # construction of the break (counters reset).
        assert h.scheme.members_for(base) == [base] or posmap.leaf(base) == posmap.leaf(base + 1)


class TestPrefetchAccounting:
    def test_prefetch_hit_stats(self):
        h = Harness()
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        for _ in range(2):
            h.miss(base)
            h.miss(base + 1)
            h.evict(base)
            h.evict(base + 1)
        h.miss(base)
        h.use(base + 1)
        assert h.scheme.stats.prefetch_hits == 1
        assert h.scheme.stats.prefetch_misses == 0

    def test_prefetch_miss_stats_on_unused_eviction(self):
        h = Harness()
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        for _ in range(2):
            h.miss(base)
            h.miss(base + 1)
            h.evict(base)
            h.evict(base + 1)
        h.miss(base)
        h.evict(base + 1)  # prefetched, never used
        assert h.scheme.stats.prefetch_misses == 1


class TestPolicyIntegration:
    def test_adaptive_policy_receives_events(self):
        policy = AdaptiveThresholdPolicy(window_requests=4)
        h = Harness(policy=policy)
        base = next(b for b in range(0, 100, 2) if not h.is_pair(b))
        for _ in range(2):
            h.miss(base)
            h.miss(base + 1)
            h.evict(base)
            h.evict(base + 1)
        h.miss(base)
        h.use(base + 1)
        # The tracker reports prefetch hits to the policy's window.
        assert policy._window.prefetch_hits >= 1 or policy.prefetch_hit_rate == 1.0

    def test_invalid_max_sbsize(self):
        with pytest.raises(ValueError):
            DynamicSuperBlockScheme(max_sbsize=3)


class TestEvictionDecrementGuard:
    """Regression: the eviction-time merge-counter decrement must apply the
    same neighbor-validity guard as :meth:`_run_merge`.  While the neighbor
    group is not itself a super block the pair has no well-defined merge
    counter, so evicting a member must not skew the bits the merge path
    would never have read."""

    @staticmethod
    def _pair_with_invalid_neighbor(h):
        """Merge (0, 1) and force (2, 3) onto distinct leaves."""
        pm = h.oram.position_map
        h.oram.remap_group([0, 1])
        leaf01 = pm.leaf(0)
        pm.set_leaf(2, (leaf01 + 1) % pm.num_leaves)
        pm.set_leaf(3, (leaf01 + 2) % pm.num_leaves)
        return pm

    def test_no_decrement_while_neighbor_not_super_block(self):
        from repro.core.counters import bits_to_value

        h = Harness(max_sbsize=4)
        pm = self._pair_with_invalid_neighbor(h)
        pm.set_merge_bits(0, [0, 1, 1, 0])  # counter value 6
        h.scheme.on_llc_evict(0)
        assert bits_to_value(pm.merge_bits(0, 4)) == 6  # unchanged

    def test_decrement_once_neighbor_is_super_block(self):
        from repro.core.counters import bits_to_value

        h = Harness(max_sbsize=4)
        pm = self._pair_with_invalid_neighbor(h)
        # Now make (2, 3) a super block on a leaf distinct from (0, 1)'s so
        # super_block_of(0) still reports the size-2 group.
        leaf01 = pm.leaf(0)
        h.oram.remap_group([2, 3], leaf=(leaf01 + 3) % pm.num_leaves)
        pm.set_merge_bits(0, [0, 1, 1, 0])
        h.scheme.on_llc_evict(0)
        assert bits_to_value(pm.merge_bits(0, 4)) == 5

    def test_coresident_eviction_never_decrements(self):
        from repro.core.counters import bits_to_value

        h = Harness(max_sbsize=4)
        pm = self._pair_with_invalid_neighbor(h)
        leaf01 = pm.leaf(0)
        h.oram.remap_group([2, 3], leaf=(leaf01 + 3) % pm.num_leaves)
        pm.set_merge_bits(0, [0, 1, 1, 0])
        h.scheme._coresident[0] = 1  # residency saw its neighbor
        h.scheme.on_llc_evict(0)
        assert bits_to_value(pm.merge_bits(0, 4)) == 6
