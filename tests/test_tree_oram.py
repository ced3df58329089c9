"""Unit tests for the Shi et al. binary-tree ORAM (the section 6.1 substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mixins import merge_pairs
from repro.oram.tree_oram import ShiTreeORAM
from repro.security.observer import AccessObserver
from repro.security.statistics import chi_square_uniformity
from repro.utils.rng import DeterministicRng


def make_oram(levels=5, num_blocks=64, seed=4, **kwargs):
    return ShiTreeORAM(
        levels=levels, num_blocks=num_blocks, rng=DeterministicRng(seed), **kwargs
    )


class TestBasics:
    def test_construction_satisfies_invariant(self):
        make_oram().check_invariants()

    def test_access_returns_block_and_remaps(self):
        oram = make_oram()
        before = oram.leaf_of(7)
        blocks = oram.access([7], new_leaf=(before + 1) % 32)
        assert blocks == {7: 7 << 32 | (before + 1) % 32}
        assert oram.leaf_of(7) != before
        oram.check_invariants()

    def test_super_block_access(self):
        oram = make_oram()
        target = oram.leaf_of(4)
        oram.access([5], new_leaf=target)
        blocks = oram.access([4, 5])
        assert set(blocks) == {4, 5}
        assert oram.leaf_of(4) == oram.leaf_of(5)
        oram.check_invariants()

    def test_access_rejects_split_group(self):
        oram = make_oram()
        if oram.leaf_of(0) == oram.leaf_of(1):
            oram.access([1], new_leaf=(oram.leaf_of(1) + 1) % 32)
        with pytest.raises(ValueError):
            oram.access([0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            ShiTreeORAM(levels=0, num_blocks=4)
        with pytest.raises(ValueError):
            ShiTreeORAM(levels=3, num_blocks=0)
        oram = make_oram()
        with pytest.raises(ValueError):
            oram.access([])

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=80))
    def test_random_access_sequences_preserve_invariant(self, raw):
        oram = make_oram(seed=8)
        for value in raw:
            oram.access([value % oram.num_blocks])
        oram.check_invariants()

    def test_eviction_percolates_blocks_down(self):
        oram = make_oram(levels=6, num_blocks=128, seed=5)
        for i in range(200):
            oram.access([i % 128])
        assert oram.evicted_blocks > 0
        oram.check_invariants()


class TestObliviousness:
    def test_leaf_sequence_uniform(self):
        observer = AccessObserver()
        oram = ShiTreeORAM(
            levels=5, num_blocks=64, rng=DeterministicRng(6), observer=observer
        )
        for i in range(3000):
            oram.access([i % 64])
        _, p = chi_square_uniformity(observer.leaves(), 32)
        assert p > 1e-4


class TestSuperBlockGeneralization:
    """Section 6.1's claim, demonstrated on this second substrate."""

    def test_merge_pairs_establishes_invariant(self):
        oram = make_oram(levels=6, num_blocks=128, seed=7)
        merge_pairs(oram, sbsize=2)
        for base in range(0, 128, 2):
            assert oram.leaf_of(base) == oram.leaf_of(base + 1)
        oram.check_invariants()

    def test_pairs_halve_accesses_on_sequential_scans(self):
        plain = make_oram(levels=6, num_blocks=128, seed=9)
        merged = make_oram(levels=6, num_blocks=128, seed=9)
        merge_pairs(merged, sbsize=2)
        merged.accesses = 0  # reset after the merge traffic
        plain.accesses = 0

        for sweep in range(3):
            for addr in range(128):
                plain.access([addr])
            addr = 0
            while addr < 128:
                merged.access([addr, addr + 1])  # one fetch serves two
                addr += 2
        assert merged.accesses == plain.accesses / 2
        merged.check_invariants()

    def test_merge_pairs_rejects_bad_size(self):
        with pytest.raises(ValueError):
            merge_pairs(make_oram(), sbsize=3)
