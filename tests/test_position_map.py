"""Unit tests for the position map and its PrORAM bit fields."""

import pytest

from repro.oram.position_map import PositionMap
from repro.utils.rng import DeterministicRng


def make_posmap(num_blocks=64, num_leaves=32, entries_per_block=8):
    return PositionMap(num_blocks, num_leaves, entries_per_block, DeterministicRng(5))


class TestLeafMapping:
    def test_initial_leaves_in_range(self):
        pm = make_posmap()
        for addr in range(64):
            assert 0 <= pm.leaf(addr) < 32

    def test_set_and_get(self):
        pm = make_posmap()
        pm.set_leaf(3, 17)
        assert pm.leaf(3) == 17

    def test_remap_assigns_common_leaf(self):
        pm = make_posmap()
        leaf = pm.remap([4, 5, 6, 7])
        assert all(pm.leaf(a) == leaf for a in range(4, 8))

    def test_remap_explicit_leaf(self):
        pm = make_posmap()
        assert pm.remap([0, 1], leaf=9) == 9
        assert pm.leaf(0) == 9 and pm.leaf(1) == 9

    @pytest.mark.parametrize("num_leaves", [1, 2, 3, 5, 64, 65])
    def test_remap_draws_exactly_what_randbelow_draws(self, num_leaves):
        """``remap`` runs ``Random._randbelow`` inline: the same leaves, in
        order, and the generator left in the same state -- for 2**k leaves
        (every tree), for 2**k + 1 (the longest redraw runs) and the small
        cases."""
        pm = PositionMap(16, num_leaves, 8, DeterministicRng(9))
        twin = DeterministicRng(9)  # the same draws up to here: the initial leaves
        assert list(twin.random_leaves(num_leaves, 16)) == list(pm._leaves)
        drawn = [pm.remap([addr % 16]) for addr in range(500)]
        assert drawn == [twin._random._randbelow(num_leaves) for _ in range(500)]
        assert pm._rng.state_snapshot() == twin.state_snapshot()

    def test_validation(self):
        with pytest.raises(ValueError):
            PositionMap(0, 32, 8, DeterministicRng(1))
        with pytest.raises(ValueError):
            PositionMap(8, 32, 7, DeterministicRng(1))


class TestBitFields:
    def test_bits_default_zero(self):
        pm = make_posmap()
        assert pm.merge_bit(0) == 0
        assert pm.break_bit(0) == 0
        assert pm.prefetch_bit(0) == 0

    def test_set_bits(self):
        pm = make_posmap()
        pm.set_merge_bit(2, 1)
        pm.set_break_bit(2, 1)
        pm.set_prefetch_bit(2, 1)
        assert pm.entry(2).merge_bit == 1
        assert pm.entry(2).break_bit == 1
        assert pm.entry(2).prefetch_bit == 1
        pm.set_merge_bit(2, 0)
        assert pm.merge_bit(2) == 0

    def test_group_bits_roundtrip(self):
        pm = make_posmap()
        pm.set_merge_bits(8, [1, 0, 1, 1])
        assert pm.merge_bits(8, 4) == [1, 0, 1, 1]
        pm.set_break_bits(8, [0, 1])
        assert pm.break_bits(8, 2) == [0, 1]


class TestPosMapBlocks:
    def test_block_id(self):
        pm = make_posmap(entries_per_block=8)
        assert pm.block_id(0) == 0
        assert pm.block_id(7) == 0
        assert pm.block_id(8) == 1

    def test_super_block_entries_share_posmap_block(self):
        # Section 4.1: a super block (and its neighbor) always lives in one
        # PosMap block, so counters come for free with the lookup.
        pm = make_posmap(entries_per_block=8)
        for addr in range(0, 64, 8):
            group = [pm.block_id(a) for a in range(addr, addr + 8)]
            assert len(set(group)) == 1


class TestSuperBlockInference:
    def test_no_super_block_by_default(self):
        pm = make_posmap(num_leaves=2**20)
        for addr in range(16):
            assert pm.super_block_of(addr, 4) == (addr, 1)

    def test_detects_pair(self):
        pm = make_posmap()
        pm.remap([4, 5], leaf=3)
        # Ensure neighbours differ so the size-4 check fails.
        pm.set_leaf(6, 1)
        pm.set_leaf(7, 2)
        assert pm.super_block_of(4, 4) == (4, 2)
        assert pm.super_block_of(5, 4) == (4, 2)

    def test_detects_largest_group(self):
        pm = make_posmap()
        pm.remap([8, 9, 10, 11], leaf=7)
        assert pm.super_block_of(9, 4) == (8, 4)
        # With max size 2 only the pair is reported.
        assert pm.super_block_of(9, 2) == (8, 2)

    def test_unaligned_equal_leaves_do_not_merge(self):
        # Blocks 3 and 4 share a leaf but are not an aligned pair.
        pm = make_posmap(num_leaves=2**20)
        pm.set_leaf(3, 123)
        pm.set_leaf(4, 123)
        assert pm.super_block_of(3, 2) == (3, 1)
        assert pm.super_block_of(4, 2) == (4, 1)

    def test_group_is_super_block(self):
        pm = make_posmap()
        pm.remap([0, 1], leaf=5)
        assert pm.group_is_super_block(0, 2)
        pm.set_leaf(1, 6)
        assert not pm.group_is_super_block(0, 2)

    def test_group_at_address_space_edge(self):
        pm = make_posmap(num_blocks=6)
        # Group [4,8) extends past num_blocks=6: never a super block.
        assert not pm.group_is_super_block(4, 4)
        assert pm.super_block_of(5, 4) in [(4, 2), (5, 1)]
