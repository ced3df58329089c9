"""Recursive / Unified ORAM accounting (paper sections 2.3 and 2.6).

In practice the position map is too large to keep on-chip, so it is stored
in further ORAMs: the data ORAM's position map lives in PosMap ORAM 1,
whose position map lives in PosMap ORAM 2, and so on; with
``num_hierarchies = 4`` (Table 1) the final, tiny position map is on-chip.

The baseline the paper uses is *Unified ORAM* (Fletcher et al., ASPLOS'15):
data and PosMap blocks share one binary tree, and an on-chip cache of
PosMap blocks (a "PosMap Lookaside Buffer") exploits the locality of
position-map accesses the way a TLB exploits page-table locality.  An
access that finds its PosMap block cached costs a single path access; each
consecutive miss walking up the hierarchy costs one more path access in the
same tree.

This module models exactly that quantity -- how many *path accesses* a
request needs -- without physically storing PosMap blocks in the functional
tree (their stash interaction is second-order; the paper's performance
effects come from the access count and latency, which we reproduce).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.utils.bitops import log2_exact


class PosMapHierarchy:
    """On-chip PosMap block cache plus hierarchy walk accounting.

    Args:
        num_hierarchies: total ORAM hierarchies including the data ORAM
            (Table 1: 4, i.e. three PosMap levels behind the data tree).
        entries_per_block: position map entries per PosMap block (32).
        cache_entries: capacity of the on-chip PosMap block cache.
    """

    #: the integer attributes the walk counts in (checkpointed and reported
    #: through the owning controller's ``counters()`` walk)
    COUNTERS = ("lookups", "cache_hits")

    def __init__(self, num_hierarchies: int, entries_per_block: int, cache_entries: int):
        if num_hierarchies < 1:
            raise ValueError("need at least the data ORAM hierarchy")
        self.num_hierarchies = num_hierarchies
        self.entries_per_block = entries_per_block
        self._shift = log2_exact(entries_per_block)
        self.cache_entries = cache_entries
        # Keys are (hierarchy << 56) | block_id -- see :meth:`lookup`.
        self._cache: "OrderedDict[int, None]" = OrderedDict()
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def lookup(self, addr: int) -> int:
        """Walk the hierarchy for one request; return *extra* path accesses.

        Returns 0 when the level-1 PosMap block is cached; otherwise the
        number of consecutive uncached levels starting from level 1 (at most
        ``num_hierarchies - 1``; the final position map is always on-chip).
        All PosMap blocks touched by the walk become cached.
        """
        self.lookups += 1
        if self.num_hierarchies == 1:
            return 0  # the whole position map is on-chip
        cache = self._cache
        shift = self._shift
        block_id = addr >> shift
        # Cache keys pack (hierarchy, block id) into one int: int keys
        # hash/compare faster than tuples and this runs per request.
        key = (1 << 56) | block_id
        if key in cache:
            # Level-1 hit (most walks): nothing missed, nothing to install.
            cache.move_to_end(key)
            self.cache_hits += 1
            return 0
        missed = [key]
        for hierarchy in range(2, self.num_hierarchies):
            block_id >>= shift
            key = (hierarchy << 56) | block_id
            if key in cache:
                cache.move_to_end(key)
                self.cache_hits += 1
                break
            missed.append(key)
        # Install every block on the walk (they were all brought on-chip).
        for key in missed:
            self._insert(key)
        return len(missed)

    def _insert(self, key: int) -> None:
        if self.cache_entries <= 0:
            return  # cache disabled: plain recursive ORAM, every walk full
        if key in self._cache:
            self._cache.move_to_end(key)
            return
        self._cache[key] = None
        while len(self._cache) > self.cache_entries:
            self._cache.popitem(last=False)

    def cached_keys(self) -> List[int]:
        """The cached PosMap blocks' keys, least recently used first (what
        a backend checkpoint stores)."""
        return list(self._cache)

    def load_cache(self, keys: List[int]) -> None:
        """Replace the cache with :meth:`cached_keys` output, LRU order kept."""
        self._cache = OrderedDict.fromkeys(keys)

    def hit_rate(self) -> float:
        """Fraction of lookups whose walk ended on a cached PosMap block.

        ``cache_hits`` counts the hit that stops a walk at *any* level, so
        a lookup that missed its level-1 block and found the level-2 block
        cached (one extra path access) still counts as a hit; only walks
        that ran all the way to the on-chip root map do not.
        """
        if self.lookups == 0:
            return 0.0
        return self.cache_hits / self.lookups
