"""The Path ORAM protocol (paper section 2.2) with background eviction (2.4).

This is the *functional* ORAM: it moves block words (``addr << 32 | leaf``,
:mod:`repro.oram.tree`) between the binary tree and the stash.  Timing is
charged separately by :mod:`repro.memory.interconnect`; obliviousness can be
audited by attaching an :class:`~repro.security.observer.AccessObserver`.

Domain model
------------
Every block always lives in the ORAM domain: on the path of its mapped leaf,
or in the stash (the Path ORAM invariant).  The secure processor's caches
hold *copies* -- the standard DRAM-replacement interface of the secure
processor literature the paper builds on (Ren et al., ISCA'13):

* an LLC miss triggers an ORAM **read access** (:meth:`PathORAM.access`):
  the path is read, the requested super block is remapped, and the path is
  written back with the blocks still inside the ORAM;
* a dirty LLC eviction triggers an ORAM **write access** (the same
  :meth:`PathORAM.access`, data updated in place);
* clean evictions just drop the copy.

:meth:`access` returns the members' words after the remap.  A block's
payload, if it has one, is ``tree.payloads[addr]``: a caller updates it
between :meth:`begin_access` and :meth:`finish_access`, while the block is
on-chip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import ORAMConfig
from repro.controller.mixins import (
    BoundedDrainMixin,
    GreedyWritebackMixin,
    SharedLeafMixin,
    TreeAuditMixin,
)
from repro.controller.scheme import ORAMScheme
from repro.oram.position_map import PositionMap
from repro.oram.stash import Stash
from repro.oram.tree import BinaryTree
from repro.utils.bitops import LEAF_BITS, LEAF_MASK
from repro.utils.rng import DeterministicRng


class PathORAM(
    SharedLeafMixin,
    GreedyWritebackMixin,
    BoundedDrainMixin,
    TreeAuditMixin,
):
    """Functional Path ORAM over a binary tree with a stash and position map.

    Implements the :class:`~repro.controller.scheme.ORAMScheme` protocol;
    the shared stash/eviction machinery lives in the
    :mod:`repro.controller.mixins` and the initial placement in
    :meth:`BinaryTree.populate` (``finish_access`` below keeps a
    hand-inlined specialization of the greedy write-back, pinned by the
    golden determinism test, and ``drain_stash`` one of the bounded drain).

    Args:
        config: geometry and capacity parameters.
        rng: deterministic randomness (leaf assignment, eviction paths).
        observer: optional callback object with ``on_path_access(leaf, kind)``
            recording the adversary-visible access sequence.
        populate: install ``config.num_blocks`` blocks at construction.
    """

    #: the integer attributes this ORAM counts in: what a checkpoint's
    #: ``counters`` section and a controller's ``counters()`` walk carry
    COUNTERS = ("real_accesses", "dummy_accesses", "stash_soft_overflows")

    def __init__(
        self,
        config: ORAMConfig,
        rng: DeterministicRng,
        observer=None,
        populate: bool = True,
    ):
        self.config = config
        self.rng = rng
        self.observer = observer
        self.tree = BinaryTree(config.levels, config.bucket_size)
        self.stash = Stash(config.stash_blocks)
        self.position_map = PositionMap(
            num_blocks=max(1, config.num_blocks),
            num_leaves=config.num_leaves,
            entries_per_block=config.posmap_entries_per_block,
            rng=rng.fork(salt=0x9E3779B9),
        )
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self._populated = False
        #: the leaf begin_access read, parked for finish_access's write-back
        #: (``None`` between accesses); the timing pipeline streams it
        self.pending_leaf: Optional[int] = None
        # Scratch depth buckets reused by every write-back (allocating
        # levels+1 lists per access showed up in profiles).  Entries are
        # always left empty between calls.
        self._depth_buckets: List[List[int]] = [
            [] for _ in range(config.levels + 1)
        ]
        self._depth_appends = [bucket.append for bucket in self._depth_buckets]
        # The write-back's walk, deepest level first: each level with the
        # tree's ``(first heap index, leaf shift)`` for it, so a placed
        # chunk's bucket is one shift and add.  Ints only, so the plan is
        # nothing the cyclic collector walks (tests/test_footprint.py).
        level_plan = self.tree.level_plan
        self._writeback_plan = tuple(
            (level, *level_plan[level]) for level in range(config.levels, -1, -1)
        )
        # Skip the per-access calls to the (empty) path hooks unless a
        # subclass actually overrides them (the integrity ORAM does).
        cls = type(self)
        self._hooks_active = (
            cls._before_path_read is not PathORAM._before_path_read
            or cls._after_path_write is not PathORAM._after_path_write
        )
        # Depth of a block on the path to leaf s is a pure function of
        # (its leaf XOR s): levels minus the xor's bit length.  For trees
        # up to 2**20 leaves the whole function is precomputed as a table,
        # turning the per-block arithmetic of the eviction inner loop into
        # one indexed load.  The table is a list (8 MB at 2**20 leaves), not
        # bytes: a list subscript is a specialized instruction, a bytes one
        # a generic call, and it pays for the mask the block word needs.
        # Built by doubling, one list repeat per bit length (the xors of
        # bit length b + 1 are [2**b, 2**(b+1)): depth levels - b - 1), so a
        # build does no Python work per leaf.
        if config.num_leaves <= (1 << 20):
            levels = config.levels
            self._depth_of_xor: Optional[List[int]] = [levels]
            for bits in range(levels):
                self._depth_of_xor += [levels - 1 - bits] * (1 << bits)
        else:
            self._depth_of_xor = None
        if populate:
            self.populate()

    # ------------------------------------------------------------------ setup
    def populate(self) -> None:
        """Install the initial working set.

        Each block is placed on the path of its (already assigned) leaf as
        deep as possible; blocks that find no free bucket start life in the
        stash.  At the default utilization almost everything fits.

        Population is deferred when a super block scheme needs to adjust the
        position map first (the static scheme merges at initialization time,
        section 3.3, which must happen before blocks are physically placed).
        """
        if self._populated:
            raise RuntimeError("ORAM already populated")
        self._populated = True
        for word in self.tree.populate(self.position_map._leaves):
            self.stash.add(word)

    # ----------------------------------------------------------------- access
    def begin_access(
        self, addrs: Sequence[int], new_leaf: Optional[int] = None
    ) -> Dict[int, int]:
        """Protocol steps 1-4 of one ORAM access on a (super) block.

        All of ``addrs`` must share a mapped leaf (the super block
        invariant).  The single path is read into the stash and every
        member is remapped to one new random leaf.  Between this call and
        :meth:`finish_access` every member physically sits in the stash, so
        the super block scheme may re-point groups with
        :meth:`remap_group` (merge/break decisions) before the write-back
        commits block positions.

        Args:
            addrs: basic-block addresses of the super block.
            new_leaf: override the random remap leaf (tests only).

        Returns:
            Mapping of address -> remapped block word for every member.
        """
        posmap = self.position_map
        leaves = posmap._leaves
        if len(addrs) == 1:
            # Singleton fast path (most accesses): the leaf straight from
            # the map's array, no mixin or accessor frame.
            leaf = leaves[addrs[0]]
        else:
            leaf = self._validated_shared_leaf(addrs, leaves.__getitem__)
        if self.pending_leaf is not None:
            raise RuntimeError("previous access not finished")
        self.real_accesses += 1
        if self.observer is not None:
            self.observer.on_path_access(leaf, "real")
        # Step 2: read the whole path straight into the stash's backing
        # dict (no intermediate list), with one amortized duplicate check
        # and one watermark update.
        if self._hooks_active:
            self._before_path_read(leaf)
        stash = self.stash
        store = stash.blocks
        before = len(store)
        moved = self.tree.read_path_into(leaf, store)
        after = len(store)
        if after != before + moved:
            raise ValueError("duplicate block in stash (path/stash overlap)")
        if after > stash.max_occupancy:
            stash.max_occupancy = after
        # Step 4: remap every member to one fresh random leaf, rewriting its
        # word in place (a dict keeps a key's position).  (Step 3, returning
        # the block, happens below -- the order does not matter functionally
        # and the remap must cover members still in the stash.)
        assigned = posmap.remap(addrs, new_leaf)
        fetched: Dict[int, int] = {}
        for addr in addrs:
            if addr not in store:
                raise KeyError(f"block {addr} in neither tree nor stash")
            fetched[addr] = store[addr] = addr << 32 | assigned
        self.pending_leaf = leaf
        return fetched

    def finish_access(self) -> None:
        """Protocol step 5: write the accessed path back from the stash.

        The greedy write-back: every stash block is scored by the deepest
        level it may occupy on this path -- the length of the common prefix
        of its mapped leaf and the path's leaf.  Buckets are filled
        deepest-first; blocks that do not fit remain in the stash.  This is
        the one home of the write-back: :meth:`dummy_access` parks its
        path here too.

        Implementation: blocks are bucketed by eligible depth in one O(S)
        pass (replacing an O(S log S) sort) and consumed deepest-bucket
        first, preserving stash insertion order within each depth -- the
        exact consumption order the previous stable sort produced, so the
        resulting tree state is bit-identical.  This is a hand-inlined
        specialization of
        :meth:`~repro.controller.mixins.GreedyWritebackMixin._greedy_writeback`
        (byte-table depth lookup, reused scratch buckets, direct bucket
        stores); the parity suite checks the two agree.
        """
        leaf = self.pending_leaf
        if leaf is None:
            raise RuntimeError("no access in progress")
        self.pending_leaf = None
        z = self.config.bucket_size
        # One plain loop over the stash buckets every block by its
        # common-prefix depth with the path: bitops.common_prefix_length
        # inlined, or for small trees one byte-table load per block.  The
        # depth-bucket lists and their pre-bound ``append`` methods are
        # reused scratch space, so each block costs one ``append`` call
        # (and one ``bit_length`` without the table).  A map/zip chain over
        # the same view makes no fewer appends and runs slower: its calls
        # from C cost more than the bytecode they replace (DESIGN section 5).
        by_depth = self._depth_buckets
        appends = self._depth_appends
        table = self._depth_of_xor
        stash_blocks = self.stash.blocks
        mask = LEAF_MASK
        if table is not None:
            for word in stash_blocks.values():
                appends[table[(word & mask) ^ leaf]](word)
        else:
            levels = self.config.levels
            for word in stash_blocks.values():
                appends[levels - ((word & mask) ^ leaf).bit_length()](word)
        # Consume deepest-bucket first.  Before filling level L, ``pending``
        # holds the not-yet-placed blocks with score >= L in consumption
        # order (score descending, stash insertion order within a score);
        # the bucket takes its first <= Z.  The chunks are written into the
        # tree storage directly: a chunk never exceeds ``z``, so the
        # write_bucket_at overflow check is redundant here and skipped.
        # Every write-back immediately follows a read of the same path
        # (begin_access and dummy_access both read first), so the path
        # buckets are empty on entry and levels that place nothing need no
        # write at all -- nor a heap index: one is computed only for a
        # level that takes a chunk.
        buckets = self.tree._buckets
        pending: List[int] = []
        placed: List[int] = []
        for level, first, shift in self._writeback_plan:
            depth_bucket = by_depth[level]
            if depth_bucket:
                pending += depth_bucket
                del depth_bucket[:]  # leave the scratch space empty
            if pending:
                chunk = pending[:z]
                del pending[:z]
                placed += chunk
                buckets[first + (leaf >> shift)] = chunk
        # Drop the placed blocks from the stash (the write-back only places
        # blocks it took from there, so every one is present).
        for word in placed:
            del stash_blocks[word >> 32]
        if self._hooks_active:
            self._after_path_write(leaf)

    def access(self, addrs: Sequence[int], new_leaf: Optional[int] = None) -> Dict[int, int]:
        """One complete ORAM access (begin + finish, no scheme hook)."""
        fetched = self.begin_access(addrs, new_leaf)
        self.finish_access()
        return fetched

    def remap_group(self, addrs, leaf: Optional[int] = None) -> int:
        """Remap a group whose members are all on-chip (stash) or cached.

        Used by merge/break: updates the position map and rewrites the
        words of stash-resident members to match.  Callers must only pass
        groups with no stale *tree*-resident member (guaranteed between
        ``begin_access`` and ``finish_access`` for the accessed super
        block, and for merge targets that already share one leaf).
        """
        assigned = self.position_map.remap(addrs, leaf)
        blocks = self.stash.blocks
        for addr in addrs:
            if addr in blocks:
                blocks[addr] = addr << LEAF_BITS | assigned
        return assigned

    def dummy_access(self, kind: str = "dummy") -> None:
        """Background eviction / periodic dummy access (sections 2.4, 2.5).

        Reads and writes one uniformly random path without remapping any
        block: everything just read can at least return to where it was, so
        stash occupancy cannot increase, and blocks already in the stash
        may find room on the path.  The write-back is
        :meth:`finish_access`'s, on the parked dummy leaf.
        """
        if self.pending_leaf is not None:
            raise RuntimeError("previous access not finished")
        leaf = self.rng.randbelow(self.config.num_leaves)
        self.dummy_accesses += 1
        if self.observer is not None:
            self.observer.on_path_access(leaf, kind)
        if self._hooks_active:
            self._before_path_read(leaf)
        # Same path read as begin_access.  The watermark cannot rise here
        # -- a dummy access never adds net blocks, and the write-back below
        # runs before the next occupancy reading -- but the duplicate check
        # is kept: it guards the same invariant.
        stash = self.stash
        store = stash.blocks
        before = len(store)
        moved = self.tree.read_path_into(leaf, store)
        if len(store) != before + moved:
            raise ValueError("duplicate block in stash (path/stash overlap)")
        if len(store) > stash.max_occupancy:
            stash.max_occupancy = len(store)
        self.pending_leaf = leaf
        self.finish_access()

    def drain_stash(self) -> int:
        """Issue background evictions until the stash is within capacity;
        return the count.

        :meth:`BoundedDrainMixin.drain_stash` with the capacity test and the
        give-up count inline: this runs before every real request and
        almost always finds the stash within capacity.
        """
        stash = self.stash
        blocks = stash.blocks
        evictions = 0
        while len(blocks) > stash.capacity:
            if evictions >= self.MAX_EVICTIONS_PER_DRAIN:
                self.stash_soft_overflows += 1
                break
            self.dummy_access()
            evictions += 1
        return evictions

    # ----------------------------------------------------------------- hooks
    def _before_path_read(self, leaf: int) -> None:
        """Hook before a path is read (integrity verification attaches here)."""

    def _after_path_write(self, leaf: int) -> None:
        """Hook after a path is written back (integrity update attaches here)."""

    def rebuild_auxiliary(self) -> None:
        """Rebuild derived structures after state was installed externally.

        Called by checkpoint restore once the tree/stash/posmap contents are
        in place.  The base ORAM derives nothing from its contents; the
        Merkle-verified subclass rebuilds its hash tree here.
        """

    # --------------------------------------------------------------- queries
    def _audit_view(self):
        return self.position_map.leaf, self.stash.blocks

    @property
    def num_blocks(self) -> int:
        """Logical address-space size (ORAMScheme protocol)."""
        return self.position_map.num_blocks

    @property
    def stash_occupancy(self) -> int:
        """Blocks currently held on-chip (ORAMScheme protocol)."""
        return len(self.stash)

    def locate(self, addr: int) -> str:
        """Return 'tree' or 'stash' for a block (tests/debugging).

        One tree pass via :meth:`BinaryTree.address_index` -- never used
        on the simulation hot path.
        """
        if addr in self.stash:
            return "stash"
        if addr in self.tree.address_index():
            return "tree"
        raise KeyError(f"block {addr} not found anywhere")


ORAMScheme.register(PathORAM)
