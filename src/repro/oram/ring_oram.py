"""Ring ORAM -- the bandwidth-optimized tree ORAM (Ren et al., 2015).

Ring ORAM is the natural stress test for the paper's section 6.1 claim
("all ORAM schemes should be able to take advantage of super blocks"):
unlike Path ORAM it does *not* read whole paths on every access, so super
blocks interact with its machinery non-trivially.

The construction, functionally:

* each bucket holds up to ``Z`` real blocks and ``S`` dummy slots, with a
  per-bucket access budget;
* **ReadPath** touches exactly one slot per bucket on the accessed path --
  the addressed block where it lives, a fresh dummy everywhere else -- so
  an access moves ``L+1`` blocks instead of Path ORAM's ``(L+1) * Z * 2``;
* every ``A`` accesses an **EvictPath** reads and rewrites one full path,
  chosen in reverse-lexicographic order (deterministic, public);
* a bucket whose budget is exhausted before its next eviction gets an
  **EarlyReshuffle** (read + rewrite of that bucket).

The Path ORAM invariant is unchanged -- every block lives on the path of
its mapped leaf or in the stash -- which is exactly why super blocks carry
over: members share a leaf, and one ReadPath can collect them all (paying
an extra touch only when two members share a bucket).

Bandwidth is the whole point of Ring ORAM, so the class meters
``blocks_transferred`` for every operation; the generalization benchmark
compares amortized blocks/access against Path ORAM, with and without
pairing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.controller.mixins import (
    BoundedDrainMixin,
    GreedyWritebackMixin,
    SharedLeafMixin,
    TreeAuditMixin,
)
from repro.controller.scheme import ORAMScheme
from repro.oram.tree import BinaryTree
from repro.utils.bitops import LEAF_BITS
from repro.utils.rng import DeterministicRng


def reverse_bits(value: int, width: int) -> int:
    """Bit-reversal (the reverse-lexicographic eviction order)."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class RingORAM(
    SharedLeafMixin,
    GreedyWritebackMixin,
    BoundedDrainMixin,
    TreeAuditMixin,
):
    """Functional Ring ORAM with super block support.

    Implements the :class:`~repro.controller.scheme.ORAMScheme` protocol:
    the access splits into :meth:`begin_access` (ReadPath + remap, members
    parked in the stash) and :meth:`finish_access` (the periodic EvictPath
    / EarlyReshuffle maintenance), and background pressure is relieved by
    :meth:`dummy_access` (one forced EvictPath) under the shared bounded
    drain.

    The real blocks live in a :class:`~repro.oram.tree.BinaryTree` of
    ``Z``-block buckets -- the heap layout Path ORAM and the Shi tree use;
    the ``S`` dummy slots are implicit, and each bucket's access budget is
    one int of ``_budget`` beside the tree.

    Args:
        levels: tree depth ``L``.
        num_blocks: logical address space.
        z: real slots per bucket (Ring ORAM favours larger Z than Path
            ORAM; 8 is a reasonable small-scale setting).
        s: dummy slots per bucket (the per-bucket access budget).
        a: accesses between EvictPath operations.
        stash_capacity: soft stash bound used by ``drain_stash``.
        rng: deterministic randomness.

    ``recorder``/``shard`` are :class:`~repro.oram.path_oram.PathORAM`'s.
    """

    def __init__(
        self,
        levels: int,
        num_blocks: int,
        z: int = 8,
        s: int = 12,
        a: int = 8,
        stash_capacity: Optional[int] = None,
        rng: Optional[DeterministicRng] = None,
    ):
        if levels < 1 or num_blocks < 1:
            raise ValueError("need at least one level and one block")
        if s < a:
            raise ValueError("dummy budget S must cover the eviction period A")
        self.levels = levels
        self.z = z
        self.s = s
        self.a = a
        self.rng = rng or DeterministicRng(31)
        self.recorder = None
        self.shard = 0
        self.num_blocks = num_blocks
        self.tree = BinaryTree(levels, z)
        #: slots touched per bucket since its last rewrite (the budget S caps)
        self._budget = [0] * self.tree.num_buckets
        self._leaves = self.rng.random_leaves(self.tree.num_leaves, num_blocks)
        #: address -> block word of every on-chip block
        self.stash: Dict[int, int] = {}
        self.stash_capacity = (
            stash_capacity if stash_capacity is not None else max(32, 4 * levels)
        )
        # Statistics
        self.accesses = 0
        self.evict_paths = 0
        self.early_reshuffles = 0
        self.blocks_transferred = 0
        self.dummy_accesses = 0
        self.stash_soft_overflows = 0
        self._evict_counter = 0
        self._pending_path: Optional[Sequence[int]] = None
        for word in self.tree.populate(self._leaves):
            self.stash[word >> LEAF_BITS] = word

    # ------------------------------------------------------------- plumbing
    def leaf_of(self, addr: int) -> int:
        return self._leaves[addr]

    def _audit_view(self):
        return self.leaf_of, self.stash

    # ----------------------------------------------------------------- access
    def begin_access(
        self, addrs: Sequence[int], new_leaf: Optional[int] = None
    ) -> Dict[int, int]:
        """ReadPath for a (super) block: fetch, remap, park in the stash.

        All of ``addrs`` must share a leaf.  One slot is touched per bucket
        on the path (an extra touch per additional member co-located in the
        same bucket); members are remapped together to a fresh leaf and
        stay in the stash until an EvictPath writes them back.  The
        periodic maintenance runs at :meth:`finish_access`.
        """
        leaf = self._validated_shared_leaf(addrs, self._leaves.__getitem__)
        if self._pending_path is not None:
            raise RuntimeError("previous access not finished")
        self.accesses += 1
        if self.recorder is not None:
            self.recorder.record_event("path", shard=self.shard, leaf=leaf, kind="real")
        wanted = set(addrs)
        found = set()
        path = self.tree.path_indices(leaf)
        for index in path:
            bucket = self.tree.bucket(index)
            hits = [word for word in bucket if word >> LEAF_BITS in wanted]
            # One touch minimum (dummy if no member here); one per member
            # beyond the first costs an extra touch of this bucket.
            touches = max(1, len(hits))
            self._budget[index] += touches
            self.blocks_transferred += touches
            for word in hits:
                bucket.remove(word)
                found.add(word >> LEAF_BITS)
        for addr in wanted - found:
            if self.stash.pop(addr, None) is not None:
                found.add(addr)
        missing = wanted - found
        if missing:
            raise KeyError(f"blocks {sorted(missing)} not on their path")
        assigned = new_leaf if new_leaf is not None else self.rng.random_leaf(self.tree.num_leaves)
        fetched: Dict[int, int] = {}
        for addr in addrs:
            self._leaves[addr] = assigned
            fetched[addr] = self.stash[addr] = addr << LEAF_BITS | assigned
        self._pending_path = path
        return fetched

    def finish_access(self) -> None:
        """Periodic maintenance: counted EvictPath + EarlyReshuffle."""
        if self._pending_path is None:
            raise RuntimeError("no access in progress")
        pending = self._pending_path
        self._pending_path = None
        self._evict_counter += 1
        if self._evict_counter >= self.a:
            self._evict_counter = 0
            self._evict_path()
        self._early_reshuffle(pending)

    def access(self, addrs: Sequence[int], new_leaf: Optional[int] = None) -> Dict[int, int]:
        """One complete access: ReadPath plus the periodic maintenance."""
        found = self.begin_access(addrs, new_leaf)
        self.finish_access()
        return found

    def remap_group(self, addrs: Sequence[int], leaf: Optional[int] = None) -> int:
        """Re-point a group whose members are all stash-resident (merge/break)."""
        assigned = leaf if leaf is not None else self.rng.random_leaf(self.tree.num_leaves)
        for addr in addrs:
            self._leaves[addr] = assigned
            if addr in self.stash:
                self.stash[addr] = addr << LEAF_BITS | assigned
        return assigned

    # --------------------------------------------------------------- eviction
    def _next_evict_leaf(self) -> int:
        return reverse_bits(self.evict_paths % self.tree.num_leaves, self.levels)

    def _evict_path(self) -> None:
        """Full read+write of the next reverse-lexicographic path."""
        leaf = self._next_evict_leaf()
        self.evict_paths += 1
        # Read every real block on the path into the stash; every bucket
        # on it is rewritten, so its budget starts over.
        self.tree.read_path_into(leaf, self.stash)
        for index in self.tree.path_indices(leaf):
            self._budget[index] = 0
        self.blocks_transferred += (self.levels + 1) * (self.z + self.s)

        # Greedy write-back, deepest first (the shared mixin algorithm).
        def write_bucket(level: int, blocks: List[int]) -> None:
            self.tree.write_bucket(level, leaf, blocks)
            self.blocks_transferred += self.z + self.s  # full bucket write

        self._greedy_writeback(leaf, self.levels, self.z, self.stash, write_bucket)

    def dummy_access(self, kind: str = "dummy") -> None:
        """One forced EvictPath: background stash relief (no block remapped).

        The eviction leaf is the public reverse-lexicographic schedule, so
        the adversary learns nothing beyond the (public) eviction count.
        """
        self.dummy_accesses += 1
        if self.recorder is not None:
            self.recorder.record_event(
                "path", shard=self.shard, leaf=self._next_evict_leaf(), kind=kind
            )
        self._evict_path()

    # drain_stash comes from BoundedDrainMixin.
    def _stash_over_limit(self) -> bool:
        return len(self.stash) > self.stash_capacity

    def _note_drain_overflow(self) -> None:
        self.stash_soft_overflows += 1

    def _early_reshuffle(self, indices: Sequence[int]) -> None:
        """Rewrite buckets whose dummy budget is exhausted."""
        budget = self._budget
        for index in indices:
            if budget[index] >= self.s:
                self.early_reshuffles += 1
                self.blocks_transferred += 2 * (self.z + self.s)
                budget[index] = 0

    # -------------------------------------------------------------- analysis
    @property
    def stash_occupancy(self) -> int:
        """Blocks currently held on-chip (ORAMScheme protocol)."""
        return len(self.stash)

    def blocks_per_access(self) -> float:
        """Amortized blocks moved per logical access (Ring's headline metric)."""
        return self.blocks_transferred / self.accesses if self.accesses else 0.0


ORAMScheme.register(RingORAM)
