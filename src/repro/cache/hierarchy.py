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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cache.set_associative import EvictedLine, SetAssociativeCache
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
        victim_callback: Optional[Callable[[int, bool], None]] = None,
        num_cores: int = 1,
    ):
        self.l1s = [
            SetAssociativeCache(l1_config, name=f"l1.{core}")
            for core in range(num_cores)
        ]
        #: core 0's L1 (the whole L1 side of a single-core tile)
        self.l1 = self.l1s[0]
        self.llc = SetAssociativeCache(llc_config, name="llc")
        #: called as (addr, dirty) for every line leaving the LLC
        self.victim_callback = victim_callback
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
        if self.l1s[core].lookup(addr, is_write):
            if is_write:
                # Write-through of the dirty bit to the LLC keeps eviction
                # bookkeeping simple (the LLC is the point of coherence with
                # the ORAM domain).
                self.llc.mark_dirty(addr)
            return self._l1_outcome
        if self.llc.lookup(addr, is_write):
            self._promote_to_l1(addr, core)
            return self._llc_outcome
        return self._miss_outcome

    def _promote_to_l1(self, addr: int, core: int) -> None:
        victim = self.l1s[core].insert(addr, dirty=False)
        # Inclusive hierarchy: the L1 victim's data is still in the LLC
        # (dirtiness was written through), so the eviction is silent.
        del victim

    # ------------------------------------------------------------------ fills
    def fill_demand(self, addr: int, is_write: bool, core: int = 0) -> None:
        """Install a demand-fetched line in the LLC and ``core``'s L1."""
        self._insert_llc(addr, dirty=is_write)
        self._promote_to_l1(addr, core)

    def fill_prefetch(self, addr: int) -> None:
        """Install a prefetched line in the LLC only."""
        self._insert_llc(addr, dirty=False)

    def _insert_llc(self, addr: int, dirty: bool) -> None:
        victim = self.llc.insert(addr, dirty=dirty)
        if victim is not None:
            self._handle_llc_eviction(victim)

    def _handle_llc_eviction(self, victim: EvictedLine) -> None:
        # Inclusive: pull the line out of every L1 as well; an L1 copy's
        # dirtiness is already reflected in the LLC state (write-through of
        # the dirty bit in :meth:`access`).
        for l1 in self.l1s:
            l1.invalidate(victim.addr)
        if self.victim_callback is not None:
            self.victim_callback(victim.addr, victim.dirty)

    def invalidate(self, addr: int) -> None:
        """Drop a line entirely (tests)."""
        for l1 in self.l1s:
            l1.invalidate(addr)
        victim = self.llc.invalidate(addr)
        if victim is not None and self.victim_callback is not None:
            self.victim_callback(victim.addr, victim.dirty)

    # ------------------------------------------------------------------- misc
    def contains(self, addr: int) -> bool:
        """LLC tag probe (the merge algorithm's neighbor check)."""
        return self.llc.contains(addr)

    def resident_addresses(self) -> List[int]:
        return self.llc.resident_addresses()
