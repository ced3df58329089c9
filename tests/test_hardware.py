"""Unit tests for the hardware-cost accounting (section 4.5)."""

import pytest

from repro.config import ORAMConfig
from repro.core.hardware import (
    leaf_label_bits,
    max_super_block_size_supported,
    posmap_block_fits,
    storage_overhead,
)


class TestStorage:
    def test_paper_overhead_claim(self):
        # "the storage overhead of dynamic super block is only 4 bits per
        # block, less than 0.4%"
        overhead = storage_overhead(ORAMConfig())
        assert overhead.bits_per_block == 4
        assert overhead.fraction < 0.004

    def test_leaf_label_bits_table1(self):
        # The paper's example packs 25-bit leaf labels.
        assert 24 <= leaf_label_bits(ORAMConfig()) <= 26

    def test_posmap_entry_layout(self):
        overhead = storage_overhead(ORAMConfig())
        assert overhead.posmap_entry_extra_bits == 3  # merge + break + prefetch
        assert overhead.posmap_entry_bits == leaf_label_bits(ORAMConfig()) + 3

    def test_posmap_block_packing_constraint(self):
        # 32 x (25 + 2) = 864 bits fits in a 128 B (1024-bit) block.
        assert posmap_block_fits(ORAMConfig())
        # Doubling the entry count overflows the block.
        assert not posmap_block_fits(ORAMConfig(posmap_entries_per_block=64))

    def test_max_super_block_size(self):
        assert max_super_block_size_supported(ORAMConfig()) == 16

