"""The dynamic super block scheme -- PrORAM proper (paper section 4).

Life of an access:

1. The backend asks :meth:`DynamicSuperBlockScheme.members_for` which basic
   blocks travel together -- the super block inferred from leaf equality in
   the position map (nothing is merged at initialization; everything starts
   at ``sbsize = 1``).
2. The functional ORAM fetches the members and remaps them to one new leaf.
3. :meth:`DynamicSuperBlockScheme.process_fetch` then runs

   * **Algorithm 2 (break)**: reconstruct the break counter from the break
     bits, apply the prefetch/hit evidence of every block that came from
     the ORAM, and either break the super block in half (the half without
     the demand block returns to the stash under a fresh independent leaf)
     or mark the prefetched half's blocks pending (prefetch=1, hit=0);
   * **Algorithm 1 (merge)**: reconstruct the merge counter for (B, B'),
     probe the LLC tags for B's neighbor, and bump the counter -- merging
     B into (B, B') when the threshold is reached by pointing B's position
     map entries at B''s leaf.

Merging and breaking are pure position-map operations on blocks that are
on-chip, so they add no path accesses -- the property that makes the scheme
free of bandwidth overhead (section 4.5.2).

Interpretation note (documented in DESIGN.md): Algorithm 1 as printed
increments the merge counter when B loads with B' resident and decrements
when B loads with B' absent.  On a sequential scan over a footprint larger
than the LLC -- the very pattern super blocks exist for -- the two events
alternate exactly (the lower-address member always loads *before* its
neighbor arrives), so the counter nets zero per pass and nothing could ever
merge, contradicting the paper's own results (Figure 6a: dyn matches stat
at 100% locality).  The increment is kept exactly as written; the decrement
is taken causally at *LLC eviction* of a member whose neighbor group never
became co-resident during the residency (one co-residence bit per line, set
by the same tag probe the increment already performs).  This judges the
identical evidence -- "were B and B' in the cache at the same time?" --
once per residency instead of prejudging it at load time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core import counters
from repro.core.thresholds import StaticThresholdPolicy, ThresholdPolicy
from repro.oram.super_block import SuperBlockScheme
from repro.utils.bitops import is_power_of_two


class DynamicSuperBlockScheme(SuperBlockScheme):
    """PrORAM's dynamic super block scheme (sections 4.1-4.4)."""

    name = "dyn"

    def __init__(
        self,
        max_sbsize: int = 2,
        policy: Optional[ThresholdPolicy] = None,
        break_enabled: bool = True,
        literal_merge_decrement: bool = False,
    ):
        """Args:
            max_sbsize: largest super block the scheme may build (Table 1: 2).
            policy: threshold policy; defaults to the static thresholds of
                section 4.4.1 (benchmarks typically pass the adaptive one).
            break_enabled: disable to get the paper's ``Nb`` (no breaking)
                variants of Figure 6b; super blocks then never dissolve.
            literal_merge_decrement: take Algorithm 1's decrement at load
                time exactly as printed instead of at eviction time.  Kept
                for the ablation benchmark: on streaming footprints beyond
                the LLC the literal rule nets zero per pass and (almost)
                nothing ever merges -- see the module docstring.
        """
        super().__init__()
        if not is_power_of_two(max_sbsize):
            raise ValueError("max super block size must be a power of two")
        self.max_sbsize = max_sbsize
        #: merges, breaks and remaps stay inside the largest super block
        self.membership_span = max_sbsize
        self.policy = policy if policy is not None else StaticThresholdPolicy()
        self.listener = self.policy
        self.break_enabled = break_enabled
        self.literal_merge_decrement = literal_merge_decrement
        self._coresident = bytearray(0)

    def attach(self, oram, llc_contains) -> None:
        super().attach(oram, llc_contains)
        # One co-residence bit per basic block: "this LLC residency saw the
        # neighbor group resident at the same time" (see module docstring).
        self._coresident = bytearray(oram.position_map.num_blocks)
        # Direct handles for the width-2 counter fast paths below (none of
        # these arrays is ever reallocated by its owner).
        self._posmap = oram.position_map
        self._leaves = oram.position_map._leaves
        self._num_blocks = oram.position_map.num_blocks
        #: super blocks are at most pairs (Table 1's max size 2, within a
        #: PosMap block): membership is one compare of the pair's leaves
        self._pairs = min(self.max_sbsize, oram.position_map.entries_per_block) == 2
        self._merge_bits = oram.position_map._merge_bits
        self._break_bits = oram.position_map._break_bits

    # ------------------------------------------------------------ membership
    def members_for(self, addr: int) -> List[int]:
        if self._pairs:
            # PositionMap.super_block_of at pair granularity, inline.
            base = addr & ~1
            leaves = self._leaves
            if base + 2 <= self._num_blocks and leaves[base] == leaves[base + 1]:
                return [base, base + 1]
            return [addr]
        base, size = self._posmap.super_block_of(addr, self.max_sbsize)
        if size == 1:
            return [base]
        return list(range(base, base + size))

    # ------------------------------------------------------------- main hook
    def process_fetch(
        self, demand: int, members: List[int], fetched: Dict[int, int]
    ) -> List[int]:
        base = members[0]
        size = len(members)
        coresident = self._coresident
        for addr in fetched:
            coresident[addr] = 0  # fresh LLC residency starts now
        if size > 1:
            fills: List[int] = []
            broke = self._run_break(demand, base, size, fetched, fills)
            # Hysteresis: a super block broken this access does not
            # immediately audition for re-merging.
            if not broke and not self._merge_throttled:
                # group_base(demand, size) inlined: sizes are powers of two.
                self._run_merge(demand & ~(size - 1), size)
            return fills
        fills = [demand]
        # A singleton arriving from the ORAM may carry a stale pending
        # prefetch bit (it was prefetched, evicted unused, and its super
        # block broke apart since).  Consume it so the bit does not corrupt
        # a future counter reconstruction (consume_bits inlined: only its
        # prefetch-bit clear has an effect here).
        self._pf_bits[demand] = 0
        if self._merge_throttled or self.max_sbsize < 2:
            return fills
        # Algorithm 1 for a singleton B = {demand} (every merge audition at
        # the default max_sbsize of 2), inline: the neighbor is one block
        # and the counter is the two merge bits of the aligned pair, read
        # and written directly instead of slicing/boxing through the codec.
        cb = demand & ~1
        if cb + 2 > self._num_blocks:
            return fills
        neighbor = cb if cb != demand else demand + 1
        m = self._merge_bits
        value = (m[cb] << 1) | m[cb + 1]
        llc_contains = self.llc_contains
        if llc_contains is not None and llc_contains(neighbor):
            coresident[cb] = 1
            coresident[cb + 1] = 1
            if value < 3:
                value += 1
            if value >= self.policy.merge_threshold(2):
                self._merge(demand, neighbor, 1, cb, 2)
                return fills
            m[cb] = value >> 1
            m[cb + 1] = value & 1
        elif self.literal_merge_decrement and value:
            value -= 1
            m[cb] = value >> 1
            m[cb + 1] = value & 1
        return fills

    # ------------------------------------------------------------- Algorithm 2
    def _run_break(
        self,
        demand: int,
        base: int,
        size: int,
        fetched: Dict[int, int],
        fills: List[int],
    ) -> bool:
        """Break algorithm; returns True if the super block was broken.
        Appends the members that enter the LLC to ``fills``."""
        posmap = self._posmap
        # Reconstruct the break counter from the super block's break bits,
        # then update it with the prefetch/hit evidence of blocks coming
        # from ORAM.  Pairs (every call at the default max size) read the
        # two bits and consume the evidence with direct array indexing.
        if size == 2:
            bb = self._break_bits
            raw = (bb[base] << 1) | bb[base + 1]
            pf = self._pf_bits
            hits = self._hit_bits
            for addr in fetched:
                if pf[addr]:
                    pf[addr] = 0
                    raw += 1 if hits[addr] else -1
        else:
            raw = counters.bits_to_value(posmap.break_bits_raw(base, size))
            for addr in fetched:
                prefetch, hit = self.tracker.consume_bits(addr)
                if prefetch and not hit:
                    raw -= 1
                elif prefetch and hit:
                    raw += 1
        threshold = self.policy.break_threshold(size)
        half = size // 2
        demand_in_low = demand < base + half
        keep_base = base if demand_in_low else base + half
        drop_base = base + half if demand_in_low else base
        if self.break_enabled and raw < threshold:
            # ---- break B into B1 (with the demand block) and B2.
            keep = list(range(keep_base, keep_base + half))
            drop = list(range(drop_base, drop_base + half))
            # Fresh independent leaf for each half; every member is in the
            # stash right now (the access's write-back has not run yet), so
            # the physical positions follow the new mapping.
            self.oram.remap_group(keep)
            self.oram.remap_group(drop)
            self._reset_group_counters(base, size)
            for member in range(base, base + size):
                self._coresident[member] = 0
            if half >= 2:
                # The halves remain super blocks of size ``half``; give each
                # a freshly initialized break counter (section 4.4.1).
                initial_bits = counters.value_to_bits(
                    counters.initial_break_value(half), half
                )
                posmap.set_break_bits(keep_base, initial_bits)
                posmap.set_break_bits(drop_base, initial_bits)
            self.stats.breaks += 1
            # B1 goes to the LLC; its fetched non-demand blocks are still
            # prefetches relative to the demand block.
            for addr in keep:
                if addr in fetched:
                    if addr != demand:
                        self.tracker.mark_prefetched(addr)
                    fills.append(addr)
            # B2 is "written back to ORAM": its blocks simply stay in the
            # tree/stash under their fresh independent leaf -- no copies
            # enter the LLC.
            return True
        # ---- keep the super block: store the updated counter and mark the
        # prefetched half pending ("b.prefetch = true; b.hit = false").
        if size == 2:
            stored = 0 if raw < 0 else (3 if raw > 3 else raw)
            bb[base] = stored >> 1
            bb[base + 1] = stored & 1
        else:
            stored = counters.saturate(raw, size)
            posmap.set_break_bits(base, counters.value_to_bits(stored, size))
        for addr in range(base, base + size):
            if addr not in fetched:
                continue
            if addr != demand:
                self.tracker.mark_prefetched(addr)
            fills.append(addr)
        return False

    # ------------------------------------------------------------- Algorithm 1
    def _run_merge(self, base: int, size: int) -> None:
        """Merge algorithm for super block B = [base, base+size), size >= 2
        (:meth:`process_fetch` runs a singleton's audition inline)."""
        result_size = size * 2
        if result_size > self.max_sbsize:
            return
        posmap = self._posmap
        combined_base = base & ~(result_size - 1)  # group_base inlined
        if combined_base + result_size > posmap.num_blocks:
            return  # neighbor group extends past the address space
        neighbor_base = combined_base if combined_base != base else base + size
        # The neighbor must currently be a group of the same granularity: it
        # must not already be merged into something larger (impossible here,
        # since that would have made B part of it) but it may be internally
        # unmerged -- merging then adopts one common leaf for all members.
        neighbor = range(neighbor_base, neighbor_base + size)
        if not posmap.group_is_super_block(neighbor_base, size):
            # The neighbor group is not itself a super block (its members
            # map to different leaves), so "changing the position map of B
            # to the position map of B'" is not well defined -- and would
            # strand B''s tree-resident blocks off their paths.  Wait until
            # the neighbor merges at its own granularity.
            return
        width = counters.merge_counter_width(size)
        value = counters.bits_to_value(
            posmap.merge_bits_raw(combined_base, result_size)
        )
        llc_contains = self.llc_contains
        coresident = llc_contains is not None
        if coresident:
            for addr in neighbor:
                if not llc_contains(addr):
                    coresident = False
                    break
        if coresident:
            # Locality observed: B and B' are co-resident.  Flag every
            # member of both groups so their evictions do not count against
            # the pair (module docstring).
            for addr in range(combined_base, combined_base + result_size):
                self._coresident[addr] = 1
            value = counters.saturate(value + 1, width)
            if value >= self.policy.merge_threshold(result_size):
                self._merge(base, neighbor_base, size, combined_base, result_size)
                return
            posmap.set_merge_bits(combined_base, counters.value_to_bits(value, width))
        elif self.literal_merge_decrement:
            # Ablation mode: decrement at load time as Algorithm 1 prints it.
            value = counters.saturate(value - 1, width)
            posmap.set_merge_bits(combined_base, counters.value_to_bits(value, width))
        # Otherwise the no-locality decrement is deferred to LLC eviction
        # time (:meth:`on_llc_evict`), where the co-residence verdict for
        # this residency is final.

    def on_llc_evict(self, addr: int) -> None:
        if self._pf_bits[addr] and not self._hit_bits[addr]:
            self.tracker.on_llc_evict(addr)  # an unused prefetch: a miss
        if self.literal_merge_decrement:
            return  # ablation mode: no eviction-time decrement
        if self._coresident[addr]:
            # Residency observed its neighbor; no evidence against the pair.
            self._coresident[addr] = 0
            return
        posmap = self._posmap
        if self._pairs:
            # PositionMap.super_block_of at pair granularity, inline (as in
            # members_for).
            base = addr & ~1
            leaves = self._leaves
            if base + 2 <= self._num_blocks and leaves[base] == leaves[base + 1]:
                size = 2
            else:
                base, size = addr, 1
        else:
            base, size = posmap.super_block_of(addr, self.max_sbsize)
        result_size = size * 2
        if result_size > self.max_sbsize:
            return  # already at the maximum size; no next-level counter
        combined_base = base & ~(result_size - 1)  # group_base inlined
        if combined_base + result_size > posmap.num_blocks:
            return
        if size == 1:
            # Mirror of the singleton audition in :meth:`process_fetch`: the
            # pair counter is the two merge bits at the aligned base, and a
            # counter already at zero saturates in place.
            m = self._merge_bits
            value = (m[combined_base] << 1) | m[combined_base + 1]
            if value:
                value -= 1
                m[combined_base] = value >> 1
                m[combined_base + 1] = value & 1
            return
        neighbor_base = combined_base if combined_base != base else base + size
        if size > 1 and not posmap.group_is_super_block(neighbor_base, size):
            # Same guard as :meth:`_run_merge`: while the neighbor group is
            # not itself a super block, the pair (B, B') has no next-level
            # merge counter to judge -- the merge path skips such pairs, so
            # the eviction path must not decrement them either.
            return
        width = counters.merge_counter_width(size)
        value = counters.bits_to_value(
            posmap.merge_bits_raw(combined_base, result_size)
        )
        value = counters.saturate(value - 1, width)
        posmap.set_merge_bits(combined_base, counters.value_to_bits(value, width))

    def _merge(
        self, base: int, neighbor_base: int, size: int, combined_base: int, result_size: int
    ) -> None:
        """Merge B and B' by pointing B's mapping at B''s leaf (section 4.2).

        B's blocks are in the stash (mid-access, before the write-back), so
        re-pointing them is safe; B' already shares the target leaf, so its
        mapping is unchanged.  No extra path access is needed.
        """
        posmap = self._posmap
        target_leaf = posmap.leaf(neighbor_base)
        self.oram.remap_group(
            range(combined_base, combined_base + result_size), target_leaf
        )
        self._reset_group_counters(combined_base, result_size)
        for addr in range(combined_base, combined_base + result_size):
            self._coresident[addr] = 0  # flags now judge the next level
        # Fresh super block: initialize its break counter (section 4.4.1).
        initial = counters.initial_break_value(result_size)
        posmap.set_break_bits(
            combined_base, counters.value_to_bits(initial, result_size)
        )
        self.stats.merges += 1

    # ---------------------------------------------------------------- helpers
    def _reset_group_counters(self, base: int, size: int) -> None:
        """Zero the merge/break bits of a group whose structure changed.

        "Once super blocks are merged or broken, the counters are
        reconstructed and the bits are reused for different super block
        sizes." -- resetting avoids stale bits leaking into the counters of
        the new granularity.
        """
        posmap = self._posmap
        zeros = [0] * size
        posmap.set_merge_bits(base, zeros)
        posmap.set_break_bits(base, zeros)
