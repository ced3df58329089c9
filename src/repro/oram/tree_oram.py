"""The Shi et al. binary-tree ORAM -- the paper's generalization target.

Section 6.1: "other ORAM schemes (e.g., [27]) have similar binary tree
structure to Path ORAM.  After adding background eviction, these ORAM
schemes can also benefit from using super blocks.  In general, all ORAM
schemes should be able to take advantage of super blocks as long as they
have support for background eviction."

[27] is Shi, Chan, Stefanov, Li (Asiacrypt 2011): blocks live on the path
to their mapped leaf (the same invariant as Path ORAM), but an access
writes the fetched block back to the *root* bucket, and a separate
randomized **eviction** process percolates blocks down -- at every access,
a few random buckets per level each push one block toward the correct
child.

This module implements that ORAM functionally, with optional super block
groups (members share a leaf, are fetched by one path read, and are
re-inserted at the root together), demonstrating the paper's claim on a
second substrate.  A dedicated benchmark measures the bucket-touch
reduction super blocks buy here, mirroring the Path ORAM result.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.controller.mixins import (
    BoundedDrainMixin,
    SharedLeafMixin,
    TreeAuditMixin,
)
from repro.controller.scheme import ORAMScheme
from repro.oram.tree import BinaryTree
from repro.utils.bitops import LEAF_BITS, LEAF_MASK
from repro.utils.rng import DeterministicRng


class ShiTreeORAM(SharedLeafMixin, BoundedDrainMixin, TreeAuditMixin):
    """Functional binary-tree ORAM with root insertion and random eviction.

    Implements the :class:`~repro.controller.scheme.ORAMScheme` protocol:
    :meth:`begin_access` scans the path and re-inserts the remapped group
    at the root, :meth:`finish_access` runs the randomized percolation
    eviction, and :meth:`dummy_access` is one extra eviction round
    (draining the overflow area, this scheme's stash).

    Args:
        levels: tree depth ``L`` (2**levels leaves).
        bucket_size: blocks per bucket.  Shi et al. size buckets
            O(log N); the default follows that guidance.
        num_blocks: logical address space size.
        evictions_per_level: buckets randomly evicted per level per access
            (the scheme's ``nu``; 2 in the original paper).
        rng: deterministic randomness.
        observer: optional adversary observer (records the accessed leaf).
    """

    def __init__(
        self,
        levels: int,
        num_blocks: int,
        bucket_size: Optional[int] = None,
        evictions_per_level: int = 2,
        rng: Optional[DeterministicRng] = None,
        observer=None,
    ):
        if levels < 1:
            raise ValueError("need at least one level")
        if num_blocks < 1:
            raise ValueError("need at least one block")
        self.levels = levels
        self.bucket_size = bucket_size if bucket_size is not None else max(4, levels + 1)
        self.tree = BinaryTree(levels, self.bucket_size)
        self.num_blocks = num_blocks
        self.evictions_per_level = evictions_per_level
        self.rng = rng or DeterministicRng(17)
        self.observer = observer
        self._leaves = self.rng.random_leaves(self.tree.num_leaves, num_blocks)
        #: overflow area for blocks that find no room (counted, bounded):
        #: address -> block word
        self.overflow: Dict[int, int] = {}
        #: soft overflow bound used by ``drain_stash``
        self.overflow_capacity = max(8, 2 * self.bucket_size)
        # Statistics
        self.accesses = 0
        self.bucket_touches = 0
        self.evicted_blocks = 0
        self.dummy_accesses = 0
        self.stash_soft_overflows = 0
        self._pending_access = False
        # Populate: every block starts at the leaf bucket of its leaf (or
        # the closest ancestor with room).
        for word in self.tree.populate(self._leaves):
            self.overflow[word >> LEAF_BITS] = word

    # ------------------------------------------------------------- plumbing
    def leaf_of(self, addr: int) -> int:
        return self._leaves[addr]

    def _audit_view(self):
        return self.leaf_of, self.overflow

    # ---------------------------------------------------------------- access
    def begin_access(
        self, addrs: Sequence[int], new_leaf: Optional[int] = None
    ) -> Dict[int, int]:
        """Fetch a (super) block: one path read + root re-insertion.

        All of ``addrs`` must share a leaf.  The path is scanned bucket by
        bucket (each scanned bucket is a memory touch), the members are
        removed, remapped to one fresh random leaf, and appended to the
        root; the eviction process runs at :meth:`finish_access`.
        """
        leaf = self._validated_shared_leaf(addrs, self._leaves.__getitem__)
        if self._pending_access:
            raise RuntimeError("previous access not finished")
        self.accesses += 1
        if self.observer is not None:
            self.observer.on_path_access(leaf, "real")
        wanted = set(addrs)
        found = set()
        for index in self.tree.path_indices(leaf):
            self.bucket_touches += 1
            keep = []
            for word in self.tree.words(index):
                if word >> LEAF_BITS in wanted:
                    found.add(word >> LEAF_BITS)
                else:
                    keep.append(word)
            self.tree.write_bucket_at(index, keep)
        for addr in list(wanted):
            if self.overflow.pop(addr, None) is not None:
                found.add(addr)
        missing = wanted - found
        if missing:
            raise KeyError(f"blocks {sorted(missing)} not found on their path")
        # Remap the whole group and re-insert at the root.
        assigned = new_leaf if new_leaf is not None else self.rng.random_leaf(self.tree.num_leaves)
        root = self.tree.bucket(0)
        fetched: Dict[int, int] = {}
        for addr in addrs:
            fetched[addr] = word = addr << LEAF_BITS | assigned
            self._leaves[addr] = assigned
            if len(root) < self.bucket_size:
                root.append(word)
            else:
                self.overflow[addr] = word
        self._pending_access = True
        return fetched

    def finish_access(self) -> None:
        """Run the randomized eviction committing the access."""
        if not self._pending_access:
            raise RuntimeError("no access in progress")
        self._pending_access = False
        self._evict()

    def access(self, addrs: Sequence[int], new_leaf: Optional[int] = None) -> Dict[int, int]:
        """One complete access: path read + root insertion + eviction."""
        found = self.begin_access(addrs, new_leaf)
        self.finish_access()
        return found

    def remap_group(self, addrs: Sequence[int], leaf: Optional[int] = None) -> int:
        """Re-point a group whose members are all root/overflow-resident."""
        assigned = leaf if leaf is not None else self.rng.random_leaf(self.tree.num_leaves)
        root = self.tree.bucket(0)
        for addr in addrs:
            self._leaves[addr] = assigned
            word = addr << LEAF_BITS | assigned
            if addr in self.overflow:
                self.overflow[addr] = word
            else:
                root[:] = [word if held >> LEAF_BITS == addr else held for held in root]
        return assigned

    def dummy_access(self, kind: str = "dummy") -> None:
        """One extra eviction round: background overflow relief."""
        self.dummy_accesses += 1
        if self.observer is not None:
            # The eviction touches random buckets, not a single path; what
            # the adversary sees is one more (public) eviction round.
            self.observer.on_path_access(0, kind)
        self._evict()

    # drain_stash comes from BoundedDrainMixin (overflow is this scheme's
    # stash: blocks that found no room on their path).
    def _stash_over_limit(self) -> bool:
        return len(self.overflow) > self.overflow_capacity

    def _note_drain_overflow(self) -> None:
        self.stash_soft_overflows += 1

    @property
    def stash_occupancy(self) -> int:
        """Blocks currently in the overflow area (ORAMScheme protocol)."""
        return len(self.overflow)

    # -------------------------------------------------------------- eviction
    def _evict(self) -> None:
        """Shi et al.'s randomized eviction: per level, pop blocks downward."""
        for level in range(self.levels):
            width = 1 << level
            for _ in range(min(self.evictions_per_level, width)):
                node = self.rng.randint(0, width - 1)
                index = (1 << level) - 1 + node
                bucket = self.tree.bucket(index)
                self.bucket_touches += 3  # parent + both children (oblivious)
                if not bucket:
                    continue
                word = bucket.pop(0)
                # The child on the block's path receives it.
                child_level = level + 1
                child_index = self.tree.bucket_index(child_level, word & LEAF_MASK)
                child = self.tree.bucket(child_index)
                if len(child) < self.bucket_size:
                    child.append(word)
                    self.evicted_blocks += 1
                else:
                    bucket.append(word)  # no room: stays put this round
        # Drain overflow opportunistically through the root.
        root = self.tree.bucket(0)
        while self.overflow and len(root) < self.bucket_size:
            _, word = self.overflow.popitem()
            root.append(word)


ORAMScheme.register(ShiTreeORAM)
