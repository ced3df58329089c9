"""The Path ORAM binary tree (paper section 2.2, Figure 1).

The tree is stored heap-style: bucket ``i`` is heap index ``i``.  Level 0
is the root; level ``L`` holds the ``2**L`` leaves.  Each bucket holds up
to ``Z`` real blocks; slots not occupied by real blocks are dummy blocks
(the adversary-visible serialization in :mod:`repro.oram.crypto` pads every
bucket to ``Z`` ciphertexts so real and dummy blocks are indistinguishable).

A tree starts as its DRAM image: one flat ``array('q')`` of ``Z`` slots
per bucket, ``-1`` in a dummy slot, which the initial placement
(:meth:`BinaryTree.populate`) fills.  A bucket becomes a Python list only
when an access writes it; until then its words are read from the image.

A block is one int, its header: ``word = addr << LEAF_BITS | leaf`` -- the
program address and the leaf label the controller stores next to the data
(``LEAF_BITS = 32``, :mod:`repro.utils.bitops`).  Buckets and the stash
hold these words, so ``sorted(bucket)`` is the bucket in
address order, ``word >> LEAF_BITS`` is the address and ``word & LEAF_MASK``
the leaf.  The few blocks that carry bytes (the key-value store, the fault
model's payload flips) keep them in :attr:`BinaryTree.payloads`, by
address: the untrusted storage beside the headers.  The access path's hot
loops spell ``LEAF_BITS`` as the literal ``32`` (a constant, not a global
load per block).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.utils.bitops import LEAF_BITS


@dataclass(frozen=True)
class PhysicalAddress:
    """Where one bucket lives on every channel of the gang: ``(bank, row)``."""

    bank: int
    row: int


class PhysicalLayout:
    """Bucket-striped tiling of the bucket tree onto ganged DRAM channels.

    The tree is partitioned into complete subtrees of height
    ``subtree_levels`` (``h``): tier 0 is the single subtree rooted at
    the root, tier 1 the ``2**h`` subtrees rooted at level ``h``, and so
    on.  Every bucket is striped evenly over all the channels, so a tile
    has no channel: it occupies the *same* ``(bank, row)`` on each of
    them, and this class maps tiles to banks and rows only.  One
    subtree's ``Z * (2**h - 1)`` blocks sit contiguously in a single row
    (of every channel), so reading a path segment that crosses the
    subtree is one row activation + one burst per channel.

    Tier ``t`` starts on a row of its own (``first_row[t]``) and places
    within-tier index ``x`` at ``bank = (x + t) % B``, ``row =
    first_row[t] + x // B``: tiers occupy disjoint row ranges and ``x ->
    (x % B, x // B)`` is a bijection, so the map is injective, and every
    tier spreads evenly over the banks.  The per-tier bank rotation
    matters: the functional-to-nominal leaf embedding makes the deep
    tiers' ``x`` constant with zero low bits, and without the rotation
    they would all queue on one bank (DESIGN.md section 11).

    The layout is built over the **nominal** tree -- the paper-scale
    geometry that timing is charged against -- not the small functional
    tree.
    """

    def __init__(self, levels: int, num_banks: int, subtree_levels: int = 2):
        if levels < 1:
            raise ValueError("layout needs a tree with at least 1 level")
        if num_banks < 1:
            raise ValueError("layout needs at least one bank")
        if subtree_levels < 1:
            raise ValueError("subtree tiles must be at least one level tall")
        self.levels = levels
        self.num_banks = num_banks
        self.subtree_levels = subtree_levels
        tiers: List[Tuple[int, int, int]] = []
        rows = 0
        for tier, root_level in enumerate(range(0, levels + 1, subtree_levels)):
            tiers.append((tier, levels - root_level, rows))
            rows += -(-(1 << root_level) // num_banks)
        #: per tier t (roots at level t * h, 2**(t*h) of them), root-most
        #: first: ``(t, shift, first_row)``.  ``leaf >> shift`` is the
        #: within-tier index of the tile a path crosses; ``first_row`` is
        #: the rows handed out to tiers < t, each rounded up to whole rows.
        #: The placement rule is these three numbers: a path's tile in tier
        #: t is ``((x + t) % num_banks, first_row + x // num_banks)`` with
        #: ``x = leaf >> shift``.
        self.tiers: Tuple[Tuple[int, int, int], ...] = tuple(tiers)

    def path_tiles(self, leaf: int, first_level: int = 0) -> List[Tuple[int, int]]:
        """The placement rule: one ``(bank, row)`` per tier, root-most first.

        A root-to-leaf path crosses exactly one subtree tile per tier, so
        its physical footprint from ``first_level`` down is one entry per
        tier; tiers entirely above ``first_level`` are omitted.
        """
        if not 0 <= leaf < (1 << self.levels):
            raise ValueError(f"leaf {leaf} out of range [0, {1 << self.levels})")
        if not 0 <= first_level <= self.levels:
            raise ValueError(f"level {first_level} out of range [0, {self.levels}]")
        banks = self.num_banks
        # One comprehension frame per path, not one ``append`` per tier;
        # ``index`` is the tile's within-tier index.
        return [
            (((index := leaf >> shift) + tier) % banks, first_row + index // banks)
            for tier, shift, first_row in self.tiers[first_level // self.subtree_levels:]
        ]

    def address_of(self, level: int, leaf: int) -> PhysicalAddress:
        """Physical address of the bucket at ``level`` on the path to ``leaf``."""
        return PhysicalAddress(*self.path_tiles(leaf, level)[0])

    def path_addresses(self, leaf: int) -> Sequence[PhysicalAddress]:
        """Physical addresses of the root-to-leaf path, root first.

        Consecutive entries repeat while the path stays inside one
        subtree tile.  Test/debug view of :meth:`path_tiles`; not memoized.
        """
        return tuple(self.address_of(level, leaf) for level in range(self.levels + 1))


class BinaryTree:
    """Bucketed binary tree with arithmetic path indexing.

    The bucket at level ``l`` on the path to leaf ``s`` has heap index
    ``(1 << l) - 1 + (s >> (levels - l))``: the high ``l`` bits of the leaf
    label select the node within the level.  A path is that arithmetic and
    nothing stored: :attr:`level_plan` holds each level's two constants,
    and ``read_path_into`` and the write-back compute one index per level
    they touch.  No per-leaf vector is kept: a memo of one would grow by
    about 420 bytes per leaf ever visited (DESIGN.md section 5).

    A bucket's words live in one of two places.  ``_buckets[i]`` is
    ``None`` while bucket ``i`` is untouched: its words are then the image
    slots ``_image[i*Z : (i+1)*Z]`` up to the first ``-1``.  Otherwise it
    is the bucket itself: a list once written, or the shared empty ``()``
    a path read leaves.  :meth:`bucket` hands out the mutable list
    (materialising it); :meth:`words` reads either place and materialises
    nothing, and every read-only walk goes through it.

    A pinned treetop (DESIGN.md section 13) is not the tree's business: it
    changes which levels the interconnect streams, not where a bucket's
    words are kept, so every bucket has the one store above.
    """

    def __init__(self, levels: int, bucket_size: int):
        if not 1 <= levels < LEAF_BITS:  # the leaf label must fit the word
            raise ValueError(f"tree levels must be in [1, {LEAF_BITS}), not {levels}")
        if bucket_size < 1:
            raise ValueError("bucket size must be >= 1")
        self.levels = levels
        self.bucket_size = bucket_size
        self.num_leaves = 1 << levels
        self.num_buckets = (1 << (levels + 1)) - 1
        #: the DRAM image: ``Z`` slots per bucket in heap order, ``-1`` a
        #: dummy; what :meth:`populate` places, read while a bucket is
        #: untouched
        self._image: Optional[array] = array("q", [-1]) * (self.num_buckets * bucket_size)
        self._buckets: List[Optional[Sequence[int]]] = [None] * self.num_buckets
        #: buckets still ``None``; when the last one is touched the image
        #: is dropped, so a tree every access has reached holds no image
        self._untouched = self.num_buckets
        #: address -> payload bytes, for the blocks that carry any (the
        #: timing simulator's carry none); a block's bytes stay here
        #: wherever its word is, tree or stash
        self.payloads: Dict[int, bytes] = {}
        #: per level, root first: ``(first heap index, leaf shift)``; the
        #: bucket at that level on the path to ``leaf`` is
        #: ``first + (leaf >> shift)``
        self.level_plan: Tuple[Tuple[int, int], ...] = tuple(
            ((1 << level) - 1, levels - level) for level in range(levels + 1)
        )

    def populate(self, leaves: Sequence[int]) -> List[int]:
        """Initial placement: block ``addr`` is mapped to ``leaves[addr]``.

        Blocks are placed in address order, each block's word into the
        free slot of the deepest bucket on its path that has one -- in
        the image, so a build makes no list per bucket.  The walk up a
        path is one shift per level (root at heap index 0, leaf ``s`` at
        ``num_buckets // 2 + s``).  Returns the words whose whole path was
        full, in address order: the caller sends them to its
        stash/overflow area.  Only a fresh tree is populated.

        Per block this is the bytecode of the list walk it replaced,
        without its ``len`` and ``append`` calls.  The filled-slot counts
        are a list while the build runs (a ``bytearray`` would be an
        eighth of its size, but its subscripts are not specialized), the
        slots are stored through a ``memoryview`` (the array's own item
        store parses each int with a format string), and ``addr << 32``
        comes from a ``range`` (one int fewer allocated per block).
        """
        z = self.bucket_size
        filled = [0] * self.num_buckets
        first_leaf_bucket = self.num_buckets >> 1
        spilled: List[int] = []
        with memoryview(self._image) as slots:
            for high, leaf in zip(range(0, len(leaves) << 32, 1 << 32), leaves):
                index = first_leaf_bucket + leaf
                count = filled[index]
                while count == z:
                    if not index:
                        spilled.append(high | leaf)
                        break
                    index = (index - 1) >> 1
                    count = filled[index]
                else:
                    slots[index * z + count] = high | leaf
                    filled[index] = count + 1
        return spilled

    def flush_treetop(self) -> int:
        """Write pinned buckets back to DRAM: there are none, so 0.

        The tree keeps one copy of every bucket, so a treetop leaves nothing
        to write back.  Kept because the end of a run
        (``ORAMBackend.finalize``) still calls it once.
        """
        return 0

    def bucket_index(self, level: int, leaf: int) -> int:
        """Heap index of the bucket at ``level`` on the path to ``leaf``."""
        return (1 << level) - 1 + (leaf >> (self.levels - level))

    def path_indices(self, leaf: int) -> Sequence[int]:
        """Heap indices of the root-to-leaf path, root first.

        Computed on every call (nothing is memoized): the Ring and Shi
        ORAMs, the Merkle layer, the fault injector and tests read it.
        """
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} out of range [0, {self.num_leaves})")
        return [first + (leaf >> shift) for first, shift in self.level_plan]

    def words(self, index: int) -> Sequence[int]:
        """The block words of bucket ``index``, read-only, in slot order.

        The bucket itself once touched, else its image slots up to the
        first dummy; nothing is materialised, so a walk over every bucket
        (the audit, a checkpoint, the Merkle build) leaves the tree as it
        found it.
        """
        bucket = self._buckets[index]
        if bucket is not None:
            return bucket
        z = self.bucket_size
        slots = self._image[index * z : index * z + z]
        return slots[: slots.index(-1)] if -1 in slots else slots

    def bucket(self, index: int) -> List[int]:
        """The (mutable) list of block words in bucket ``index``.

        An untouched or read-empty bucket becomes a list here, and stays one.
        """
        bucket = self._buckets[index]
        if bucket.__class__ is not list:
            bucket = list(self.words(index))
            self.write_bucket_at(index, bucket)
        return bucket

    def read_path_into(self, leaf: int, store: Dict[int, int]) -> int:
        """Move every block word on the path to ``leaf`` into ``store``.

        This is step 2 of the access protocol: all buckets on the path are
        read and their words are keyed by address directly into the
        caller's dict (the stash's backing store).  Returns the number of
        blocks moved -- counted here, not read off the dict's growth, so a
        caller can detect a block that was already in ``store`` -- and
        leaves the path buckets empty (the shared ``()``: a read allocates
        no bucket).  One ``store[word >> 32] = word`` per block: a bulk
        ``store.update(zip(map(...)))`` runs slower, its method-wrapper
        calls cost more than this bytecode (DESIGN section 5).  An
        untouched bucket is read once from its image slots, in slot order.
        Each bucket's index is computed from :attr:`level_plan`; ``leaf``
        must be a leaf of this tree (the position map and the RNG only
        hand out those).
        """
        moved = 0
        buckets = self._buckets
        for first, shift in self.level_plan:
            index = first + (leaf >> shift)
            bucket = buckets[index]
            if bucket:
                for word in bucket:
                    store[word >> 32] = word
                    moved += 1
                buckets[index] = ()
            elif bucket is None:
                z = self.bucket_size
                for word in self._image[index * z : index * z + z]:
                    if word < 0:
                        break
                    store[word >> 32] = word
                    moved += 1
                buckets[index] = ()
                self._untouched -= 1
                if not self._untouched:
                    self._image = None
        return moved

    def write_bucket(self, level: int, leaf: int, blocks: List[int]) -> None:
        """Install the words ``blocks`` as the bucket at (level, leaf)."""
        self.write_bucket_at(self.bucket_index(level, leaf), blocks)

    def write_bucket_at(self, index: int, blocks: List[int]) -> None:
        """Install ``blocks`` at a precomputed heap index (hot write-back path).

        The tree takes ownership of the list.  Callers that already hold a
        heap index (a :meth:`path_indices` entry) use this to skip the
        per-level geometry arithmetic of :meth:`write_bucket`.
        """
        if len(blocks) > self.bucket_size:
            raise ValueError(
                f"bucket overflow: {len(blocks)} blocks into a Z={self.bucket_size} bucket"
            )
        buckets = self._buckets
        if buckets[index] is None:
            self._untouched -= 1
            if not self._untouched:
                self._image = None
        buckets[index] = blocks

    def occupancy(self) -> int:
        """Total number of real blocks currently stored in the tree."""
        return sum(len(self.words(index)) for index in range(self.num_buckets))

    def iter_blocks(self) -> Iterator[int]:
        """Iterate over every block word in the tree (for invariant checks)."""
        for index in range(self.num_buckets):
            yield from self.words(index)

    def find(self, addr: int) -> bool:
        """Whether a block with the given address exists anywhere in the tree.

        Linear scan -- used only by tests and invariant checkers, never on
        the simulation hot path.
        """
        return any(word >> LEAF_BITS == addr for word in self.iter_blocks())

    def address_index(self) -> Dict[int, int]:
        """One-pass address -> heap-index map over the live tree contents.

        A test/debug view (:meth:`PathORAM.locate`): one O(B) pass instead
        of one :meth:`find` scan per address.  Duplicate addresses keep the
        first index seen (the audit in :mod:`repro.faults.fsck` reports
        duplicates).
        """
        index_of: Dict[int, int] = {}
        for index in range(self.num_buckets):
            for word in self.words(index):
                index_of.setdefault(word >> LEAF_BITS, index)
        return index_of
