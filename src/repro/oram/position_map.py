"""Position map with the PrORAM bit fields (paper sections 2.2, 4.1, Figure 4).

The position map associates each program block address with the leaf label
it is currently mapped to.  PrORAM extends every position map entry with a
*merge bit*, a *break bit* and a *prefetch bit*; concatenating the bits of
the basic blocks in an aligned group reconstructs the group's merge or
break counter (see :mod:`repro.core.counters`).

The map is stored as flat arrays for speed, but it also exposes the paper's
*PosMap block* view: entries for ``posmap_entries_per_block`` consecutive
addresses share one PosMap block (128 B holding 32 x (25-bit leaf + merge
bit + break bit) in the paper's configuration).  Because a super block is
always an aligned power-of-two group no larger than a PosMap block, all of
a super block's entries -- and its neighbor's -- live in the same PosMap
block, so the counters come "for free" with the mapping lookup (section
4.1).  The recursion model in :mod:`repro.oram.recursion` charges ORAM
accesses at PosMap-block granularity using :meth:`PositionMap.block_id`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.utils.bitops import is_power_of_two
from repro.utils.rng import DeterministicRng


@dataclass
class PosMapEntry:
    """A decoded view of one position map entry (for inspection/tests)."""

    addr: int
    leaf: int
    merge_bit: int
    break_bit: int
    prefetch_bit: int


class PositionMap:
    """Leaf mapping plus per-entry merge/break/prefetch bits.

    Args:
        num_blocks: number of program block addresses tracked.
        num_leaves: leaf labels are drawn uniformly from ``[0, num_leaves)``.
        entries_per_block: position map entries per PosMap block.
        rng: deterministic randomness source for initial and re-mapping.
    """

    def __init__(
        self,
        num_blocks: int,
        num_leaves: int,
        entries_per_block: int,
        rng: DeterministicRng,
    ):
        if num_blocks < 1:
            raise ValueError("position map needs at least one entry")
        if not is_power_of_two(entries_per_block):
            raise ValueError("entries per PosMap block must be a power of two")
        self.num_blocks = num_blocks
        self.num_leaves = num_leaves
        self.entries_per_block = entries_per_block
        self._rng = rng
        # The leaf draw of remap (hot path): getrandbits of this width.
        self._getrandbits = rng.getrandbits
        self._leaf_bits = num_leaves.bit_length()
        # Compact typed storage: one machine word per entry instead of a
        # list of boxed ints, and C-speed slice comparisons for the leaf
        # equality scans below.
        self._leaves = rng.random_leaves(num_leaves, num_blocks)
        self._merge_bits = bytearray(num_blocks)
        self._break_bits = bytearray(num_blocks)
        self._prefetch_bits = bytearray(num_blocks)

    # ------------------------------------------------------------------ leaf
    def leaf(self, addr: int) -> int:
        """Leaf label currently assigned to ``addr``."""
        return self._leaves[addr]

    def set_leaf(self, addr: int, leaf: int) -> None:
        self._leaves[addr] = leaf

    def remap(self, addrs, leaf: Optional[int] = None) -> int:
        """Map every address in ``addrs`` to one (new random) leaf.

        Used both by the normal access path (remap the whole super block
        together, section 3.2) and by merging (all members adopt one leaf).
        Returns the leaf used.

        This is the one leaf draw of an access.  It is ``Random._randbelow``
        inline: ``getrandbits(num_leaves.bit_length())``, redrawn while the
        value is ``>= num_leaves`` -- the same values, and the generator
        left in the same state, without the wrapper's frame.
        """
        if leaf is None:
            getrandbits = self._getrandbits
            bits = self._leaf_bits
            leaf = getrandbits(bits)
            while leaf >= self.num_leaves:
                leaf = getrandbits(bits)
        leaves = self._leaves
        for addr in addrs:
            leaves[addr] = leaf
        return leaf

    # ------------------------------------------------------------- bit fields
    def merge_bit(self, addr: int) -> int:
        return self._merge_bits[addr]

    def set_merge_bit(self, addr: int, value: int) -> None:
        self._merge_bits[addr] = 1 if value else 0

    def break_bit(self, addr: int) -> int:
        return self._break_bits[addr]

    def set_break_bit(self, addr: int, value: int) -> None:
        self._break_bits[addr] = 1 if value else 0

    def prefetch_bit(self, addr: int) -> int:
        return self._prefetch_bits[addr]

    def set_prefetch_bit(self, addr: int, value: int) -> None:
        self._prefetch_bits[addr] = 1 if value else 0

    def merge_bits(self, base: int, size: int) -> List[int]:
        """Merge bits of the aligned group ``[base, base+size)``, low address first."""
        return list(self._merge_bits[base : base + size])

    def merge_bits_raw(self, base: int, size: int) -> bytearray:
        """Like :meth:`merge_bits` but returns the raw byte slice.

        Hot-path variant for counter reconstruction: skips boxing the bits
        into a list.  Callers must treat the result as read-only.
        """
        return self._merge_bits[base : base + size]

    def set_merge_bits(self, base: int, bits: List[int]) -> None:
        self._merge_bits[base : base + len(bits)] = bytes(bits)

    def break_bits(self, base: int, size: int) -> List[int]:
        """Break bits of the aligned group ``[base, base+size)``, low address first."""
        return list(self._break_bits[base : base + size])

    def break_bits_raw(self, base: int, size: int) -> bytearray:
        """Raw-slice variant of :meth:`break_bits` (see :meth:`merge_bits_raw`)."""
        return self._break_bits[base : base + size]

    def set_break_bits(self, base: int, bits: List[int]) -> None:
        self._break_bits[base : base + len(bits)] = bytes(bits)

    # --------------------------------------------------------- PosMap blocks
    def block_id(self, addr: int) -> int:
        """PosMap block holding the entry for ``addr`` (recursion granularity)."""
        return addr // self.entries_per_block

    def entry(self, addr: int) -> PosMapEntry:
        """Decoded entry view (tests / debugging)."""
        return PosMapEntry(
            addr=addr,
            leaf=self._leaves[addr],
            merge_bit=self._merge_bits[addr],
            break_bit=self._break_bits[addr],
            prefetch_bit=self._prefetch_bits[addr],
        )

    # ----------------------------------------------------------- super blocks
    def super_block_of(self, addr: int, max_size: int) -> Tuple[int, int]:
        """Infer the super block containing ``addr`` from leaf equality.

        The paper (section 4.2) does not store an explicit size field: "when
        the Pos-Map block is loaded, if the corresponding blocks in it are
        mapped to the same leaf label, the ORAM controller then treats these
        blocks as a super block".  We mirror that: the super block of
        ``addr`` is the largest aligned power-of-two group (up to
        ``max_size``, clipped to the PosMap block) whose members all share a
        leaf.  Random leaf collisions can create spurious super blocks, as
        in the real hardware; they are harmless because equal leaves really
        do mean the blocks share a path.

        Returns:
            (base address, size) of the super block; size is 1 when nothing
            is merged.
        """
        size = min(max_size, self.entries_per_block)
        leaves = self._leaves
        num_blocks = self.num_blocks
        while size > 2:
            # group_base(addr, size) inlined; ``size`` stays a power of two.
            base = addr & ~(size - 1)
            end = base + size
            # All-equal <=> the slice equals itself shifted by one entry
            # (a single C-level comparison instead of a Python loop).
            if end <= num_blocks and leaves[base : end - 1] == leaves[base + 1 : end]:
                return base, size
            size >>= 1
        if size == 2:
            # Pair granularity: a direct element compare beats building two
            # one-entry slices (this is every call at the default max size).
            base = addr & ~1
            if base + 2 <= num_blocks and leaves[base] == leaves[base + 1]:
                return base, 2
        return addr, 1

    def group_is_super_block(self, base: int, size: int) -> bool:
        """Whether the aligned group ``[base, base+size)`` shares one leaf."""
        end = base + size
        if end > self.num_blocks:
            return False
        leaves = self._leaves
        if size == 2:
            return leaves[base] == leaves[base + 1]
        return leaves[base : end - 1] == leaves[base + 1 : end]
