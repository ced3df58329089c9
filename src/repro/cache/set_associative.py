"""A set-associative, write-back, write-allocate cache with LRU replacement.

Addresses are *block* (cacheline) addresses throughout the simulator; the
byte offset within a line never matters to any experiment, so traces and
caches all operate at line granularity.

The LLC additionally supports the tag probe the merge algorithm needs
(section 4.5.2: "we need to probe the LLC to check if the neighbor block B'
exists in the cache.  Only the tag array of the LLC needs to be accessed"),
exposed as :meth:`SetAssociativeCache.contains`, which does not disturb
replacement state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.config import CacheConfig


@dataclass(slots=True)
class EvictedLine:
    """A victim pushed out of a cache set."""

    addr: int
    dirty: bool


class SetAssociativeCache:
    """LRU set-associative cache storing presence + dirty state per line."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        # Each set maps addr -> dirty flag; OrderedDict order is LRU->MRU.
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        # Statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.probe_count = 0

    # ----------------------------------------------------------------- access
    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Demand access: True on hit.  Updates LRU order and dirty state."""
        cache_set = self._sets[addr % self._num_sets]
        if addr in cache_set:
            cache_set.move_to_end(addr)
            if is_write:
                cache_set[addr] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Tag probe: presence check with no replacement side effects."""
        self.probe_count += 1
        return addr in self._sets[addr % self._num_sets]

    def insert(self, addr: int, dirty: bool = False, at_mru: bool = True) -> Optional[EvictedLine]:
        """Fill a line, evicting the LRU victim of the set if necessary.

        ``at_mru`` selects the replacement-priority position the line ends
        up in, whether or not it was already present: ``True`` installs or
        promotes the line at the MRU end (demand fills), ``False`` installs
        or demotes it at the LRU end (low-priority fills that should be the
        set's next victim).  An already-present line keeps its dirty state
        (OR-ed with ``dirty``), only its position moves.

        Returns the victim (None when the set had room or the line was
        already present).
        """
        cache_set = self._sets[addr % self._num_sets]
        if addr in cache_set:
            cache_set[addr] = cache_set[addr] or dirty
            cache_set.move_to_end(addr, last=at_mru)
            return None
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self._assoc:
            victim_addr, victim_dirty = cache_set.popitem(last=False)
            victim = EvictedLine(victim_addr, victim_dirty)
            self.evictions += 1
        cache_set[addr] = dirty
        if not at_mru:
            cache_set.move_to_end(addr, last=False)
        return victim

    def invalidate(self, addr: int) -> Optional[EvictedLine]:
        """Remove a line (inclusive-hierarchy back-invalidation)."""
        cache_set = self._sets[addr % self._num_sets]
        if addr in cache_set:
            dirty = cache_set.pop(addr)
            return EvictedLine(addr, dirty)
        return None

    def mark_dirty(self, addr: int) -> None:
        cache_set = self._sets[addr % self._num_sets]
        if addr in cache_set:
            cache_set[addr] = True

    # ------------------------------------------------------------------ misc
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_addresses(self) -> List[int]:
        """All line addresses currently cached (tests / invariant checks)."""
        out: List[int] = []
        for cache_set in self._sets:
            out.extend(cache_set.keys())
        return out

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
