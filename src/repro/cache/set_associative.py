"""The sets and counters of one set-associative, write-back cache level.

Addresses are *block* (cacheline) addresses throughout the simulator; the
byte offset within a line never matters to any experiment, so traces and
caches all operate at line granularity.

A level is state, not behaviour: each set is an ``OrderedDict`` mapping a
resident line to its dirty flag in LRU -> MRU order, and the LRU rules
that move lines between sets (hit promote, fill with victim, dirty OR on
refill, back-invalidation) belong to
:class:`~repro.cache.hierarchy.CacheHierarchy`, which resolves every
processor event directly on its levels' sets.

The LLC additionally supports the tag probe the merge algorithm needs
(section 4.5.2: "we need to probe the LLC to check if the neighbor block B'
exists in the cache.  Only the tag array of the LLC needs to be accessed"),
exposed as :meth:`SetAssociativeCache.contains`, which does not disturb
replacement state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.config import CacheConfig


class SetAssociativeCache:
    """One cache level: LRU-ordered sets of (line -> dirty) plus counters."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        #: a line's set is ``sets[addr % num_sets]``
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        # Each set maps addr -> dirty flag; OrderedDict order is LRU->MRU.
        self.sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # Statistics (kept by the hierarchy's events, and by the probe)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.probe_count = 0

    def contains(self, addr: int) -> bool:
        """Tag probe: presence check with no replacement side effects."""
        self.probe_count += 1
        return addr in self.sets[addr % self.num_sets]

    def resident_addresses(self) -> List[int]:
        """All line addresses currently cached (tests / invariant checks)."""
        out: List[int] = []
        for cache_set in self.sets:
            out.extend(cache_set.keys())
        return out
