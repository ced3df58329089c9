"""The on-chip stash (paper section 2.2).

The stash temporarily holds blocks that could not be evicted back onto a
tree path.  Its capacity (Table 1: 100 blocks) excludes the transient path
buffer: during an access the blocks just read from the path pass through
without counting against capacity, and the overflow check happens between
accesses (the controller issues background evictions before serving the
next real request when the stash is over capacity, section 2.4).
"""

from __future__ import annotations

from typing import Dict

from repro.utils.bitops import LEAF_BITS


class Stash:
    """Address-indexed store of block words with an occupancy watermark."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("stash capacity must be >= 1")
        self.capacity = capacity
        #: address -> block word (``addr << 32 | leaf``), in insertion
        #: order; the access path reads, writes and deletes it directly
        self.blocks: Dict[int, int] = {}
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, addr: int) -> bool:
        return addr in self.blocks

    def add(self, word: int) -> None:
        """Insert a block word; addresses must be unique."""
        addr = word >> LEAF_BITS
        if addr in self.blocks:
            raise ValueError(f"duplicate block {addr} in stash")
        self.blocks[addr] = word
        if len(self.blocks) > self.max_occupancy:
            self.max_occupancy = len(self.blocks)
