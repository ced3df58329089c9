"""Super block schemes (paper section 3).

A *super block* is a group of ``2**k`` blocks, adjacent and aligned in the
program address space, that are all mapped to the same path so a single
ORAM access fetches them together (Figure 3).  This module defines:

* :class:`SuperBlockScheme` -- the strategy interface the ORAM memory
  backend drives (which members to collect, what to do after a fetch);
* :class:`BaselineScheme` -- no super blocks (the paper's ``oram`` bar);
* :class:`StaticSuperBlockScheme` -- the prior-work static scheme
  (section 3.3): merge every aligned group of ``n`` at initialization,
  never adapt;
* :class:`PrefetchTracker` -- shared prefetch-bit / hit-bit bookkeeping and
  prefetch hit/miss statistics used by both the static and dynamic schemes.

The dynamic scheme (PrORAM itself) lives in :mod:`repro.core.dynamic`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.oram.path_oram import PathORAM
from repro.utils.bitops import group_base


@dataclass
class SchemeStats:
    """Counters exposed by every scheme (feed Figures 8 and 9)."""

    merges: int = 0
    breaks: int = 0
    prefetched_blocks: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0

    @property
    def prefetch_miss_rate(self) -> float:
        """Misses over resolved prefetches (the Figure 9 metric)."""
        resolved = self.prefetch_hits + self.prefetch_misses
        if resolved == 0:
            return 0.0
        return self.prefetch_misses / resolved

    @property
    def prefetch_hit_rate(self) -> float:
        resolved = self.prefetch_hits + self.prefetch_misses
        if resolved == 0:
            return 0.0
        return self.prefetch_hits / resolved


class PrefetchTracker:
    """Prefetch-bit (position map) and hit-bit (block-side) bookkeeping.

    Implements the accounting of section 4.3: a block inserted into the LLC
    as a prefetch gets ``prefetch=1, hit=0``; its first use sets ``hit``;
    leaving the LLC unused is deemed a prefetch miss.  The bits themselves
    persist across eviction (they are read again by the break algorithm the
    next time the super block is loaded); the *statistics* count each
    prefetched LLC residency exactly once, as a hit on first use or a miss
    on unused eviction.

    Hardware stores the hit bit with the data block, in the ORAM and the
    LLC (section 4.5.1: the PosMap block may not be on-chip at an LLC hit);
    here it is ``_hit_bits``, one byte per address, which behaves the same.
    """

    def __init__(self, oram: PathORAM, stats: SchemeStats, listener=None):
        self._posmap = oram.position_map
        # Direct handle on the position map's prefetch-bit array: the
        # tracker is hit on every LLC hit/evict and every fetched member,
        # and the accessor-call overhead was visible in profiles.  The
        # position map never reallocates the bytearray.
        self._prefetch_bits = self._posmap._prefetch_bits
        self._hit_bits = bytearray(self._posmap.num_blocks)
        self.stats = stats
        #: optional adaptive-threshold policy notified of hit/miss events
        self.listener = listener

    def mark_prefetched(self, addr: int) -> None:
        """Block enters the LLC as a prefetch (Algorithm 2 else-branch)."""
        self._prefetch_bits[addr] = 1
        self._hit_bits[addr] = 0
        self.stats.prefetched_blocks += 1

    def on_use(self, addr: int) -> None:
        """LLC hit on the block: first use of a pending prefetch is a hit."""
        if self._prefetch_bits[addr] and not self._hit_bits[addr]:
            self._hit_bits[addr] = 1
            self.stats.prefetch_hits += 1
            if self.listener is not None:
                self.listener.on_prefetch_hit()

    def on_llc_evict(self, addr: int) -> None:
        """Block leaves the LLC; an unused pending prefetch is a miss."""
        if self._prefetch_bits[addr] and not self._hit_bits[addr]:
            self.stats.prefetch_misses += 1
            if self.listener is not None:
                self.listener.on_prefetch_miss()

    def consume_bits(self, addr: int) -> Tuple[int, int]:
        """Read-and-clear for Algorithm 2 (block arriving from the ORAM).

        Returns the (prefetch, hit) pair the break counter update uses and
        clears the prefetch bit ("b.prefetch = false").
        """
        prefetch_bits = self._prefetch_bits
        prefetch = prefetch_bits[addr]
        hit = self._hit_bits[addr]
        prefetch_bits[addr] = 0
        return prefetch, hit


class SuperBlockScheme(ABC):
    """Strategy driven by the ORAM memory backend.

    Lifecycle: construct, :meth:`attach` to a (not yet populated) ORAM plus
    an LLC tag-probe callback, :meth:`initialize` (may rewrite the position
    map), then the backend populates the ORAM and starts calling
    :meth:`members_for` / :meth:`process_fetch` per miss and
    :meth:`on_llc_hit` / :meth:`on_llc_evict` per cache event.

    Two plain attributes are the policy's wiring, read by the merge
    algorithm and the access pipeline on every access (an attribute read,
    never a call): ``llc_contains`` is the LLC tag probe (the backend's
    ``set_llc_probe`` installs the system's), or ``None`` for a bank with
    no LLC in front of it -- nothing is ever on chip, so the readers skip
    the probe rather than call one that answers no -- and ``listener`` the
    adaptive-threshold policy fed prefetch and request events, or ``None``.
    """

    name: str = "abstract"

    #: How far one access can move super-block membership: only among the
    #: addresses of the accessed block's aligned group of this many blocks
    #: (its remap, a merge, a break or a leaf collision stays inside it).
    #: 0 -- membership is fixed once :meth:`initialize` ran; ``None`` -- no
    #: aligned bound (an access may move any address's membership).
    membership_span: Optional[int] = None

    def __init__(self) -> None:
        self.stats = SchemeStats()
        #: the ORAM and prefetch tracker :meth:`attach` binds (plain
        #: attributes: the dynamic scheme reads them on every access)
        self.oram: Optional[PathORAM] = None
        self.tracker: Optional[PrefetchTracker] = None
        self.llc_contains: Optional[Callable[[int], bool]] = None
        self.listener = None
        self._merge_throttled = False

    def attach(
        self, oram: PathORAM, llc_contains: Optional[Callable[[int], bool]]
    ) -> None:
        self.oram = oram
        self.llc_contains = llc_contains
        self.tracker = PrefetchTracker(oram, self.stats, listener=self.listener)
        # Flatten the per-LLC-event delegation: no scheme overrides
        # on_llc_hit, so the instance attribute routes hits straight to the
        # tracker (the backend re-exports this bound method in turn).  An
        # eviction goes straight to the tracker too, unless the scheme
        # extends on_llc_evict -- its override then calls the tracker
        # itself, with no hop through this class.
        self.on_llc_hit = self.tracker.on_use
        if type(self).on_llc_evict is SuperBlockScheme.on_llc_evict:
            self.on_llc_evict = self.tracker.on_llc_evict
        # The tracker's bit arrays (never reallocated), for overrides that
        # test them inline: an extended on_llc_evict reaches the tracker
        # only for an unused prefetch, the one eviction it counts.
        self._pf_bits = self.tracker._prefetch_bits
        self._hit_bits = self.tracker._hit_bits

    def set_merge_throttled(self, throttled: bool) -> None:
        """Graceful degradation under stash pressure.

        Merging grows super blocks, and bigger super blocks push more
        blocks through the stash per access; when the resilient backend
        sees occupancy cross its soft watermark it suspends merges until
        pressure subsides.  Breaks stay enabled -- they *relieve* pressure.
        """
        self._merge_throttled = throttled

    def initialize(self) -> None:
        """Adjust the position map before the ORAM is populated (default: no-op)."""

    @abstractmethod
    def members_for(self, addr: int) -> List[int]:
        """Basic-block addresses fetched together when ``addr`` misses."""

    @abstractmethod
    def process_fetch(
        self, demand: int, members: List[int], fetched: Dict[int, int]
    ) -> List[int]:
        """Post-fetch decisions (prefetch marking, merge/break).

        Returns the addresses whose copies enter the LLC, in fill order
        (the LLC's LRU state follows it).  The demand block is always
        among them; every other one is a prefetch, and the scheme has set
        its prefetch bit (:meth:`PrefetchTracker.mark_prefetched`), the
        one record of that fact.  Members the scheme leaves out (the
        written-back half of a broken super block) simply stay in the ORAM.

        Args:
            demand: the missed address that triggered the access.
            members: every basic block of the accessed super block.
            fetched: the members "coming from ORAM" -- those whose copies
                were not already resident in the LLC (Algorithm 2 only
                evaluates these).
        """

    def on_llc_hit(self, addr: int) -> None:
        """Processor used the block in the LLC ("when block b is accessed: b.hit = true")."""
        if self.tracker is not None:
            self.tracker.on_use(addr)

    def on_llc_evict(self, addr: int) -> None:
        if self.tracker is not None:
            self.tracker.on_llc_evict(addr)

    # --------------------------------------------------------------- helpers
    def _clip_group(self, base: int, size: int) -> List[int]:
        """Members of the aligned group, clipped to the address space."""
        top = min(base + size, self.oram.position_map.num_blocks)
        return list(range(base, top))


class BaselineScheme(SuperBlockScheme):
    """Plain Path ORAM: every access fetches exactly the demand block."""

    name = "oram"
    membership_span = 0

    def members_for(self, addr: int) -> List[int]:
        return [addr]

    def process_fetch(
        self, demand: int, members: List[int], fetched: Dict[int, int]
    ) -> List[int]:
        return [demand]


class StaticSuperBlockScheme(SuperBlockScheme):
    """The prior-work static scheme (section 3.3).

    Every aligned group of ``sbsize`` blocks is merged at initialization
    (before the tree is populated); groups are accessed and remapped as a
    unit forever.  No runtime adaptation: with poor spatial locality the
    prefetches miss, pollute the cache, and inflate background evictions --
    the limitation PrORAM fixes.
    """

    name = "stat"
    membership_span = 0

    def __init__(self, sbsize: int):
        super().__init__()
        if sbsize < 1 or (sbsize & (sbsize - 1)) != 0:
            raise ValueError("static super block size must be a power of two >= 1")
        self.sbsize = sbsize

    def initialize(self) -> None:
        posmap = self.oram.position_map
        for base in range(0, posmap.num_blocks, self.sbsize):
            members = self._clip_group(base, self.sbsize)
            posmap.remap(members)

    def members_for(self, addr: int) -> List[int]:
        return self._clip_group(group_base(addr, self.sbsize), self.sbsize)

    def process_fetch(
        self, demand: int, members: List[int], fetched: Dict[int, int]
    ) -> List[int]:
        for addr in fetched:
            if addr != demand:
                self.tracker.consume_bits(addr)  # refresh any stale pending bit
                self.tracker.mark_prefetched(addr)
        return list(fetched)
