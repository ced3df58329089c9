"""Hardware-cost accounting for the dynamic super block scheme (section 4.5).

The paper argues PrORAM is cheap: four extra bits per 128-byte block
(merge, break, prefetch bits in the PosMap entry; hit bit with the data
block) -- under 0.4% storage -- plus a handful of LLC tag probes and small
arithmetic per ORAM access, all off the critical path.  This module
computes those overheads for arbitrary configurations so the claim can be
checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ORAMConfig


@dataclass(frozen=True)
class StorageOverhead:
    """Static storage costs of PrORAM for a given configuration."""

    bits_per_block: int
    block_bits: int
    posmap_entry_bits: int
    posmap_entry_extra_bits: int

    @property
    def fraction(self) -> float:
        """Extra storage relative to the data block itself."""
        return self.bits_per_block / self.block_bits


def storage_overhead(config: ORAMConfig) -> StorageOverhead:
    """Per-block storage cost of the dynamic super block scheme.

    Four bits per basic block: merge + break + prefetch bits in the PosMap
    entry, and the hit bit stored with the block in ORAM/LLC (4.5.1).
    """
    return StorageOverhead(
        bits_per_block=4,
        block_bits=config.block_bytes * 8,
        posmap_entry_bits=leaf_label_bits(config) + 3,
        posmap_entry_extra_bits=3,
    )


def leaf_label_bits(config: ORAMConfig) -> int:
    """Bits needed for one leaf label in the *nominal* tree.

    The paper's example packs 32 x (25-bit leaf + flag bits) per 128 B
    PosMap block; with the Table 1 geometry this returns 25.
    """
    return config.nominal_levels


def posmap_block_fits(config: ORAMConfig) -> bool:
    """Check the PosMap block packing constraint of section 4.1.

    ``entries x (leaf + merge + break + prefetch bits)`` must fit in one
    block; this bounds the maximum super block size, since all of a super
    block's entries must share a PosMap block.
    """
    bits = config.posmap_entries_per_block * (leaf_label_bits(config) + 3)
    return bits <= config.block_bytes * 8


def max_super_block_size_supported(config: ORAMConfig) -> int:
    """Largest super block the PosMap block layout supports.

    A super block's members (and its neighbor's) must reside in one PosMap
    block, so the limit is ``posmap_entries_per_block / 2`` (the factor of
    two leaves room for the neighbor group used by the merge counter).
    """
    return config.posmap_entries_per_block // 2

