"""Strided super blocks -- the paper's future-work extension (section 6.2).

"Our paper makes the assumption that only the blocks consecutive in address
space can be merged into super blocks.  However, previous work in data
prefetch allows data striding in the address space to be prefetched.
Merging striding blocks is also possible for the dynamic super block
scheme.  Such exploration is left for future work."

This module explores it.  A *strided pair* is ``{a, a + s}`` for a stride
``s`` from a small candidate set; as in the unit-stride scheme, both
members adopt one leaf so a single path access fetches them together, and
the usual prefetch-hit/miss evidence breaks pairs that stop paying.

Differences from the aligned scheme (and the extra hardware they imply):

* Pairings are no longer derivable from leaf equality of an *aligned*
  group, so the controller keeps an explicit partner map -- in hardware, a
  per-entry stride field of ``log2(len(strides))+1`` bits in the PosMap
  block (all candidate strides stay within one PosMap block, preserving
  the "counters come for free" property of section 4.1).
* Merge evidence is tracked per (pair, stride) in small saturating
  counters, trained by the same LLC co-residence probe as Algorithm 1.

The scheme is deliberately limited to pair granularity: it is an
exploration of the paper's pointer, not a tuned product feature.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.thresholds import StaticThresholdPolicy, ThresholdPolicy
from repro.oram.super_block import SuperBlockScheme

#: candidate strides, probed in order; all fit in one 32-entry PosMap block
DEFAULT_STRIDES: Tuple[int, ...] = (1, 2, 4, 8)

MERGE_THRESHOLD = 2
INITIAL_BREAK = 3
COUNTER_MAX = 3


class StridedDynamicScheme(SuperBlockScheme):
    """Dynamic pair merging across a set of candidate strides."""

    name = "dyn_strided"

    def __init__(
        self,
        strides: Sequence[int] = DEFAULT_STRIDES,
        policy: Optional[ThresholdPolicy] = None,
    ):
        super().__init__()
        if not strides or any(s < 1 for s in strides):
            raise ValueError("strides must be positive")
        self.strides = tuple(strides)
        self.policy = policy if policy is not None else StaticThresholdPolicy()
        self.listener = self.policy
        #: addr -> partner addr for currently merged pairs (symmetric)
        self._partner: Dict[int, int] = {}
        #: (low addr, stride) -> merge evidence counter
        self._merge_counters: Dict[Tuple[int, int], int] = {}
        #: low addr of pair -> break counter
        self._break_counters: Dict[int, int] = {}
        self._coresident: Dict[int, bool] = {}

    # ------------------------------------------------------------ membership
    def members_for(self, addr: int) -> List[int]:
        partner = self._partner.get(addr)
        if partner is None:
            return [addr]
        return sorted((addr, partner))

    # -------------------------------------------------------------- main hook
    def process_fetch(
        self, demand: int, members: List[int], fetched: Dict[int, int]
    ) -> List[int]:
        for addr in fetched:
            self._coresident[addr] = False
        if len(members) != 2:
            self.tracker.consume_bits(demand)
            self._run_merge(demand)
            return [demand]
        if self._run_break(demand, members, fetched):
            # only the demand goes to the LLC; the other half stays in the ORAM
            return [demand]
        for addr in fetched:
            if addr != demand:
                self.tracker.mark_prefetched(addr)
        return list(fetched)

    # -------------------------------------------------------------- breaking
    def _run_break(self, demand, members, fetched) -> bool:
        low = members[0]
        counter = self._break_counters.get(low, INITIAL_BREAK)
        for addr in fetched:
            prefetch, hit = self.tracker.consume_bits(addr)
            if prefetch and not hit:
                counter -= 1
            elif prefetch and hit:
                counter = min(COUNTER_MAX, counter + 1)
        if counter < 0:
            # Break: independent fresh leaves for both members (both are in
            # the stash mid-access, so the remap is physical).
            a, b = members
            self.oram.remap_group([a])
            self.oram.remap_group([b])
            self._partner.pop(a, None)
            self._partner.pop(b, None)
            self._break_counters.pop(low, None)
            self.stats.breaks += 1
            return True
        self._break_counters[low] = max(0, counter)
        return False

    # --------------------------------------------------------------- merging
    def _run_merge(self, addr: int) -> None:
        llc_contains = self.llc_contains
        if llc_contains is None:
            return  # no LLC: no partner is ever co-resident
        n = self.oram.position_map.num_blocks
        for stride in self.strides:
            for partner in (addr - stride, addr + stride):
                if not 0 <= partner < n:
                    continue
                if partner in self._partner or addr in self._partner:
                    continue
                if not llc_contains(partner):
                    continue
                low = min(addr, partner)
                key = (low, stride)
                value = min(COUNTER_MAX, self._merge_counters.get(key, 0) + 1)
                self._coresident[addr] = True
                self._coresident[partner] = True
                if value >= MERGE_THRESHOLD + self.policy.merge_threshold(2) - 2:
                    self._merge(addr, partner, key)
                    return
                self._merge_counters[key] = value
                return  # one piece of evidence per fetch

    def _merge(self, addr: int, partner: int, key) -> None:
        """Point both members at one leaf (both are on-chip: addr is in the
        stash mid-access, partner's copy is in the LLC)."""
        target = self.oram.position_map.leaf(partner)
        self.oram.remap_group([addr], leaf=target)
        self._partner[addr] = partner
        self._partner[partner] = addr
        self._merge_counters.pop(key, None)
        self._break_counters[min(addr, partner)] = INITIAL_BREAK
        self.stats.merges += 1

    # ---------------------------------------------------------------- events
    def on_llc_evict(self, addr: int) -> None:
        if self._pf_bits[addr] and not self._hit_bits[addr]:
            self.tracker.on_llc_evict(addr)  # an unused prefetch: a miss
        if self._coresident.pop(addr, False):
            return
        # Decay merge evidence for this block's candidate pairs.
        for stride in self.strides:
            for partner in (addr - stride, addr + stride):
                key = (min(addr, partner), stride)
                if key in self._merge_counters:
                    value = self._merge_counters[key] - 1
                    if value <= 0:
                        self._merge_counters.pop(key)
                    else:
                        self._merge_counters[key] = value

    # -------------------------------------------------------------- overhead
    def extra_state_bits_per_block(self) -> int:
        """Hardware estimate: stride field + paired flag per PosMap entry."""
        import math

        return 1 + max(1, math.ceil(math.log2(len(self.strides))))
