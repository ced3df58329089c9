"""Shared scheme machinery hoisted out of the ORAM zoo.

Before the controller layer existed, Path ORAM, Ring ORAM, and the Shi
et al. tree ORAM each carried private copies of the same three routines:
validating that super-block members share a leaf, writing the stash back
onto a path greedily (deepest level first), and draining the stash with
bounded background evictions.  These mixins are the single home of that
logic, together with the invariant check the three tree schemes share
(:class:`TreeAuditMixin`) and the static pairing that demonstrates the
paper's section 6.1 claim on Ring ORAM and the Shi tree (:func:`merge_pairs`).
The fourth shared routine, the initial deepest-first placement, is the
tree's own: :meth:`repro.oram.tree.BinaryTree.populate` writes it straight
into the tree's DRAM image.

The hot-path exceptions: :meth:`PathORAM.finish_access` keeps its
hand-inlined specialization of :meth:`GreedyWritebackMixin._greedy_writeback`
(byte-table depth lookup, reused scratch buckets, direct bucket stores)
because it is the single hottest loop of the simulator and is pinned
bit-identical by the golden determinism test.  The mixin documents the
reference algorithm the specialization must agree with; the cross-scheme
parity suite checks that agreement -- placements, and the blocks left in
the stash in their order.  :meth:`PathORAM.drain_stash` likewise runs
:meth:`BoundedDrainMixin.drain_stash` with its capacity test inline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.utils.bitops import LEAF_BITS, LEAF_MASK, is_power_of_two


class SharedLeafMixin:
    """Validation of the super block invariant (all members on one leaf)."""

    def _validated_shared_leaf(
        self, addrs: Sequence[int], leaf_of: Callable[[int], int]
    ) -> int:
        """Return the common mapped leaf of ``addrs`` or raise ``ValueError``."""
        if not addrs:
            raise ValueError("access needs at least one address")
        leaf = leaf_of(addrs[0])
        for addr in addrs[1:]:
            if leaf_of(addr) != leaf:
                raise ValueError("super block members must share a leaf")
        return leaf


class GreedyWritebackMixin:
    """The greedy deepest-first path write-back every tree scheme shares.

    Blocks are scored by the deepest level they may occupy on the written
    path (the common-prefix length of their mapped leaf and the path
    leaf), buckets are filled deepest first, and ties preserve stash
    insertion order -- exactly the consumption order a stable descending
    sort produces, computed in one O(S) bucketing pass instead.  The
    blocks that do not fit stay in the stash in their insertion order,
    which is the order the next write-back consumes them in.
    """

    def _greedy_writeback(
        self,
        leaf: int,
        levels: int,
        capacity: int,
        stash: Dict[int, int],
        write_bucket: Callable[[int, List[int]], None],
    ) -> int:
        """Write ``stash`` back onto the path to ``leaf``; return blocks placed.

        ``stash`` maps addresses to block words.  ``write_bucket(level,
        words)`` installs the chosen words as the new content of the bucket
        at ``level`` on the path (and may charge whatever per-bucket cost
        the scheme meters).  Placed blocks are removed from ``stash``.
        """
        by_depth: List[List[int]] = [[] for _ in range(levels + 1)]
        for word in stash.values():
            differing = (word & LEAF_MASK) ^ leaf
            by_depth[
                levels if differing == 0 else levels - differing.bit_length()
            ].append(word)
        flat: List[int] = []
        pos = 0
        for level in range(levels, -1, -1):
            flat.extend(by_depth[level])
            take = min(capacity, len(flat) - pos)
            write_bucket(level, flat[pos : pos + take])
            pos += take
        for word in flat[:pos]:
            del stash[word >> LEAF_BITS]
        return pos


class BoundedDrainMixin:
    """Background-eviction drain loop with a liveness bound.

    The controller drains the stash before serving a real request
    (section 2.4); a pathologically overloaded tree can reach a state
    where random-path evictions make little progress, so rather than
    deadlocking the drain gives up for this request after
    ``MAX_EVICTIONS_PER_DRAIN`` attempts -- every attempt is still a
    charged dummy access, so the *cost* lands where the paper puts it.

    Implementors provide :meth:`_stash_over_limit` (when must the drain
    keep going) and ``dummy_access`` (one background eviction); they may
    override :meth:`_note_drain_overflow` to count give-ups.
    """

    MAX_EVICTIONS_PER_DRAIN = 64

    def _stash_over_limit(self) -> bool:
        raise NotImplementedError

    def _note_drain_overflow(self) -> None:
        """Hook: the drain hit its bound with the stash still over limit."""

    def drain_stash(self) -> int:
        """Issue background evictions until within limit; return the count."""
        evictions = 0
        while self._stash_over_limit():
            if evictions >= self.MAX_EVICTIONS_PER_DRAIN:
                self._note_drain_overflow()
                break
            self.dummy_access()
            evictions += 1
        return evictions


class TreeAuditMixin:
    """``check_invariants`` for the tree schemes: one audit, first finding.

    Path ORAM, Ring ORAM and the Shi tree keep their blocks in a
    :class:`~repro.oram.tree.BinaryTree` and share one invariant -- every
    block lives on the path of its mapped leaf or on-chip -- so all three
    are audited by :func:`repro.faults.fsck.audit_tree`.  Implementors have
    ``tree`` and ``num_blocks`` (and ``merkle`` when they verify integrity)
    and provide :meth:`_audit_view`.
    """

    def _audit_view(self) -> Tuple[Callable[[int], int], Mapping[int, int]]:
        """``(mapped leaf of an address, on-chip block words by address)``."""
        raise NotImplementedError

    def audit(self, max_errors: int = 16):
        """The :class:`~repro.faults.fsck.FsckReport` of this tree ORAM."""
        from repro.faults.fsck import audit_tree

        leaf_of, on_chip = self._audit_view()
        return audit_tree(
            self.tree, leaf_of, on_chip, self.num_blocks,
            getattr(self, "merkle", None), max_errors,
        )

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on the audit's first finding."""
        report = self.audit(max_errors=1)
        if not report.ok:
            raise AssertionError(report.errors[0])


def merge_pairs(oram, sbsize: int = 2) -> None:
    """Statically merge aligned groups on a leaf-mapped tree scheme.

    The super block invariant on Ring ORAM or the Shi tree: each member of
    every aligned ``sbsize`` group is fetched individually (they may sit on
    different paths) and remapped to the group's one random leaf, exactly
    as the static scheme's initialization does for Path ORAM.
    """
    if not is_power_of_two(sbsize):
        raise ValueError("super block size must be a power of two")
    for base in range(0, oram.num_blocks, sbsize):
        members = range(base, min(base + sbsize, oram.num_blocks))
        if len(members) < 2:
            continue
        target = oram.rng.random_leaf(oram.tree.num_leaves)
        for addr in members:
            oram.access([addr], new_leaf=target)
