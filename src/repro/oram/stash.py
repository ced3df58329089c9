"""The on-chip stash (paper section 2.2).

The stash temporarily holds blocks that could not be evicted back onto a
tree path.  Its capacity (Table 1: 100 blocks) excludes the transient path
buffer: during an access the blocks just read from the path pass through
without counting against capacity, and the overflow check happens between
accesses (the controller issues background evictions before serving the
next real request when the stash is over capacity, section 2.4).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.oram.block import Block


class Stash:
    """Address-indexed block store with occupancy statistics."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("stash capacity must be >= 1")
        self.capacity = capacity
        #: address -> block, in insertion order; public so a hot path can
        #: walk it or count it (``len``) without a method frame
        self.blocks: Dict[int, Block] = {}
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, addr: int) -> bool:
        return addr in self.blocks

    def add(self, block: Block) -> None:
        """Insert a block; addresses must be unique."""
        if block.addr in self.blocks:
            raise ValueError(f"duplicate block {block.addr} in stash")
        self.blocks[block.addr] = block
        if len(self.blocks) > self.max_occupancy:
            self.max_occupancy = len(self.blocks)

    def pop(self, addr: int) -> Optional[Block]:
        """Remove and return the block with ``addr`` if present."""
        return self.blocks.pop(addr, None)

    def peek(self, addr: int) -> Optional[Block]:
        """Return the block with ``addr`` without removing it."""
        return self.blocks.get(addr)

    def over_capacity(self) -> bool:
        """True when background eviction is required before the next access."""
        return len(self.blocks) > self.capacity

    def iter_blocks(self) -> Iterator[Block]:
        """Iterate blocks in insertion order (no generator frame: the
        write-back path walks this once per access)."""
        return iter(self.blocks.values())

    def items(self):
        return self.blocks.items()
