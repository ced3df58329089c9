"""Two-level inclusive cache hierarchy: per-core L1 + shared LLC (Table 1).

The simulator models a single tile (one memory controller, section 5.1):
one private L1 per core (``num_cores``, one by default) and one LLC.  The
hierarchy is *inclusive*: every L1 line is also in the LLC, and evicting
an LLC line back-invalidates every L1.  In
the ORAM configurations every line leaving the LLC must return to the ORAM
domain (the block was removed from the tree when fetched), so the hierarchy
reports each LLC eviction -- dirty or clean -- to a victim callback.

Prefetched blocks are inserted into the LLC only (not the L1), matching
"the other blocks are prefetched and put into the LLC" (section 3.2); their
first use is therefore an LLC hit, which is where the scheme's hit-bit
update hooks in.

Each processor event is resolved in one frame, directly on the levels'
sets (:class:`~repro.cache.set_associative.SetAssociativeCache` holds only
the sets, the counters and the tag probe): :meth:`CacheHierarchy.access`
for a load/store, :meth:`CacheHierarchy.fill_demand` for a demand fill.
The LRU rules live here and nowhere else:

* *hit promote* -- a hit moves the line to its set's MRU end, and a write
  sets its dirty bit (an L1 write hit also marks the LLC copy, the point
  of coherence with the memory domain); an LLC hit also installs the line
  in the core's L1;
* *fill with victim* -- a fill into a full set pops the LRU line as the
  ``(addr, dirty)`` pair ``popitem`` returns.  An L1 victim is dropped
  silently (its data and dirtiness are in the LLC); an LLC victim is
  back-invalidated from every L1 and returned by the fill;
* *dirty OR on refill* -- filling a line already present keeps its dirty
  bit, OR-ed with the fill's, and moves it to the MRU end;
* *back-invalidate* -- part of the LLC fill: the victim leaves every L1.

A prefetch fill (:meth:`CacheHierarchy.fill_prefetch`) is the LLC half of
a demand fill, so it reaches the same rules through ``fill_demand`` and
returns what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.set_associative import SetAssociativeCache
from repro.config import CacheConfig


@dataclass
class HierarchyAccess:
    """Outcome of one processor access."""

    level: str  # "l1", "llc", or "miss"
    latency: int


class CacheHierarchy:
    """L1 + shared LLC with inclusive back-invalidation."""

    def __init__(
        self,
        l1_config: CacheConfig,
        llc_config: CacheConfig,
        num_cores: int = 1,
    ):
        self.l1s = [
            SetAssociativeCache(l1_config, name=f"l1.{core}")
            for core in range(num_cores)
        ]
        #: core 0's L1 (the whole L1 side of a single-core tile)
        self.l1 = self.l1s[0]
        self.llc = SetAssociativeCache(llc_config, name="llc")
        # Geometry and set lists read by every event (none of them is
        # ever reassigned by a level).
        self._l1_num_sets = l1_config.num_sets
        self._l1_ways = l1_config.associativity
        self._l1_sets = [l1.sets for l1 in self.l1s]
        self._llc_num_sets = llc_config.num_sets
        self._llc_ways = llc_config.associativity
        self._llc_sets = self.llc.sets
        # Access outcomes are value objects with config-constant latencies;
        # reusing three shared instances avoids one allocation per
        # processor access.  Callers treat them as read-only.
        self._l1_outcome = HierarchyAccess("l1", l1_config.hit_latency)
        self._llc_outcome = HierarchyAccess(
            "llc", l1_config.hit_latency + llc_config.hit_latency
        )
        self._miss_outcome = HierarchyAccess("miss", 0)

    # ----------------------------------------------------------------- access
    def access(self, addr: int, is_write: bool, core: int = 0) -> HierarchyAccess:
        """Load/store of ``core`` at line address ``addr``.

        On an L1 miss / LLC hit the line is promoted into the L1.  On a full
        miss the caller must fetch from memory and then call
        :meth:`fill_demand`.
        """
        l1 = self.l1s[core]
        l1_set = self._l1_sets[core][addr % self._l1_num_sets]
        if addr in l1_set:
            l1.hits += 1
            l1_set.move_to_end(addr)
            if is_write:
                l1_set[addr] = True
                # Write-through of the dirty bit to the LLC (inclusive: the
                # line is there) keeps eviction bookkeeping in one level.
                self._llc_sets[addr % self._llc_num_sets][addr] = True
            return self._l1_outcome
        l1.misses += 1
        llc = self.llc
        llc_set = self._llc_sets[addr % self._llc_num_sets]
        if addr in llc_set:
            llc.hits += 1
            llc_set.move_to_end(addr)
            if is_write:
                llc_set[addr] = True
            # Promote into the L1 (the line just missed there).  The L1
            # victim's data is still in the LLC, so its eviction is silent.
            if len(l1_set) >= self._l1_ways:
                l1_set.popitem(last=False)
                l1.evictions += 1
            l1_set[addr] = False
            return self._llc_outcome
        llc.misses += 1
        return self._miss_outcome

    # ------------------------------------------------------------------ fills
    def fill_demand(
        self, addr: int, is_write: bool, core: Optional[int] = 0
    ) -> Optional[Tuple[int, bool]]:
        """Install a fetched line in the LLC and, unless ``core`` is None,
        in ``core``'s L1 (a demand fill; ``None`` is a prefetch fill).

        Returns the line the fill pushed out of the LLC as the ``(addr,
        dirty)`` pair, or ``None`` when it evicted nothing.
        """
        llc_set = self._llc_sets[addr % self._llc_num_sets]
        victim = None
        if addr in llc_set:
            if is_write:
                llc_set[addr] = True
            llc_set.move_to_end(addr)
        else:
            if len(llc_set) >= self._llc_ways:
                victim = llc_set.popitem(last=False)
                self.llc.evictions += 1
                # Inclusive: pull the victim out of every L1 as well; an L1
                # copy's dirtiness is already in the LLC (write-through of
                # the dirty bit in :meth:`access`).
                line = victim[0]
                index = line % self._l1_num_sets
                for sets in self._l1_sets:
                    l1_set = sets[index]
                    if line in l1_set:
                        del l1_set[line]
            llc_set[addr] = is_write
        if core is None:
            return victim
        l1_set = self._l1_sets[core][addr % self._l1_num_sets]
        if addr in l1_set:
            l1_set.move_to_end(addr)
        else:
            if len(l1_set) >= self._l1_ways:
                l1_set.popitem(last=False)
                self.l1s[core].evictions += 1
            l1_set[addr] = False
        return victim

    def fill_prefetch(self, addr: int) -> Optional[Tuple[int, bool]]:
        """Install a prefetched line in the LLC only; returns its LLC
        victim as :meth:`fill_demand` does."""
        return self.fill_demand(addr, False, None)

    # ------------------------------------------------------------------- misc
    def contains(self, addr: int) -> bool:
        """LLC tag probe (the merge algorithm's neighbor check)."""
        return self.llc.contains(addr)

    def resident_addresses(self) -> List[int]:
        return self.llc.resident_addresses()
