"""Unit tests for Ring ORAM and super blocks on it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mixins import merge_pairs
from repro.observability import InMemoryRecorder
from repro.oram.ring_oram import RingORAM, reverse_bits
from repro.security.statistics import (
    adversary_view,
    chi_square_uniformity,
    lag_autocorrelation,
)
from repro.utils.rng import DeterministicRng


def make_oram(levels=5, num_blocks=96, seed=4, **kwargs):
    return RingORAM(levels=levels, num_blocks=num_blocks, rng=DeterministicRng(seed), **kwargs)


class TestReverseBits:
    def test_examples(self):
        assert reverse_bits(0b001, 3) == 0b100
        assert reverse_bits(0b110, 3) == 0b011
        assert reverse_bits(0, 4) == 0

    @given(st.integers(min_value=0, max_value=255))
    def test_involution(self, value):
        assert reverse_bits(reverse_bits(value, 8), 8) == value

    def test_covers_all_leaves(self):
        # The eviction order visits every leaf exactly once per period.
        leaves = {reverse_bits(i, 4) for i in range(16)}
        assert leaves == set(range(16))


class TestBasics:
    def test_construction_invariant(self):
        make_oram().check_invariants()

    def test_access_returns_and_remaps(self):
        oram = make_oram()
        before = oram.leaf_of(7)
        new_leaf = (before + 1) % oram.tree.num_leaves
        blocks = oram.access([7], new_leaf=new_leaf)
        assert blocks == {7: 7 << 32 | new_leaf}
        assert oram.leaf_of(7) != before
        oram.check_invariants()

    def test_validation(self):
        with pytest.raises(ValueError):
            RingORAM(levels=0, num_blocks=4)
        with pytest.raises(ValueError):
            RingORAM(levels=3, num_blocks=4, s=2, a=8)  # budget < period
        oram = make_oram()
        with pytest.raises(ValueError):
            oram.access([])

    def test_split_group_rejected(self):
        oram = make_oram()
        if oram.leaf_of(0) == oram.leaf_of(1):
            oram.access([1], new_leaf=(oram.leaf_of(1) + 1) % oram.tree.num_leaves)
        with pytest.raises(ValueError):
            oram.access([0, 1])

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=100))
    def test_random_sequences_preserve_invariant(self, raw):
        oram = make_oram(seed=9)
        for value in raw:
            oram.access([value % oram.num_blocks])
        oram.check_invariants()

    def test_eviction_and_reshuffle_fire(self):
        oram = make_oram(a=4, s=6)
        for i in range(80):
            oram.access([i % oram.num_blocks])
        assert oram.evict_paths >= 80 // 4
        oram.check_invariants()


class TestBandwidth:
    def test_cheaper_per_access_than_full_path_reads(self):
        # Ring's read moves L+1 blocks; a Path ORAM access moves
        # 2*(L+1)*Z.  Amortized (with evictions) Ring must stay well below.
        oram = make_oram(levels=6, num_blocks=256, z=8, s=12, a=8, seed=5)
        for i in range(400):
            oram.access([i % 256])
        path_oram_cost = 2 * (oram.levels + 1) * oram.z
        assert oram.blocks_per_access() < path_oram_cost * 0.8

    def test_super_blocks_cut_amortized_bandwidth(self):
        plain = make_oram(levels=6, num_blocks=256, seed=7)
        paired = make_oram(levels=6, num_blocks=256, seed=7)
        merge_pairs(paired)
        for oram in (plain, paired):
            oram.blocks_transferred = 0
            oram.accesses = 0
        for sweep in range(3):
            for addr in range(256):
                plain.access([addr])
            addr = 0
            while addr < 256:
                paired.access([addr, addr + 1])
                addr += 2
        # Pairing halves logical accesses; amortized traffic per *logical
        # block consumed* drops substantially.
        plain_per_block = plain.blocks_transferred / (3 * 256)
        paired_per_block = paired.blocks_transferred / (3 * 256)
        assert paired_per_block < 0.75 * plain_per_block
        paired.check_invariants()


class TestSecurity:
    def test_read_leaf_sequence_uniform_and_unlinkable(self):
        oram = RingORAM(levels=5, num_blocks=96, rng=DeterministicRng(6))
        oram.recorder = recorder = InMemoryRecorder()
        for i in range(2500):
            oram.access([i % 96])
        leaves = [leaf for _, leaf in adversary_view(recorder.records)]
        _, p = chi_square_uniformity(leaves, oram.tree.num_leaves)
        assert p > 1e-4
        assert abs(lag_autocorrelation(leaves, lag=1)) < 0.07
