"""The memory-backend interface the secure-processor simulator drives.

A backend owns all timing below the LLC.  The in-order core calls
:meth:`MemoryBackend.demand_access` on every LLC miss; every LLC victim, clean
or dirty, reaches :meth:`MemoryBackend.evict_line` (a cache fill returns it
and the tile's reference loop hands it on); the optional traditional
prefetcher asks for :meth:`MemoryBackend.prefetch_access`.

An access answers with one shape on every backend: the pair
``(completion_cycle, fills)`` -- when the demand block is available to the
core (the core stalls until then), and the addresses whose lines enter the
LLC, in fill order: the demand line plus any super block members fetched
with it.  Which fills are prefetches is not part of the answer: on an ORAM
backend the scheme's :class:`~repro.oram.super_block.PrefetchTracker`
holds each line's prefetch bit, and the core tells the demand line by its
address.

Implementations: :class:`repro.memory.dram.DRAMBackend` (insecure
baseline), :class:`repro.memory.oram_backend.ORAMBackend` (Path ORAM with a
pluggable super block scheme),
:class:`repro.memory.periodic.PeriodicORAMBackend` (timing-channel
protected wrapper), and :class:`repro.controller.sharded.ShardedORAMBank`
(N address-interleaved controllers).

How many ORAM controllers sit behind the LLC is part of the interface, not
a kind to test for: every backend exposes them as :attr:`MemoryBackend.shards`
-- none for DRAM, ``(self,)`` for one controller, the channels for a bank --
and the simulators, collectors and studies iterate that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


#: what :meth:`MemoryBackend.demand_access` / ``prefetch_access`` answer:
#: ``(completion_cycle, fills)`` (module docstring)
Answer = Tuple[int, List[int]]


@dataclass
class BackendStats:
    """Counters common to all backends (energy = total accesses, section 5.1)."""

    demand_requests: int = 0
    prefetch_requests: int = 0
    #: dirty-writeback accesses (full ORAM write accesses / DRAM transfers)
    write_accesses: int = 0
    #: path accesses for ORAM backends / line transfers for DRAM
    memory_accesses: int = 0
    dummy_accesses: int = 0
    posmap_accesses: int = 0
    busy_cycles: int = 0
    # --- fault-injection counters (zero unless a FaultInjector is wired) ---
    #: transient storage failures observed (each one was retried)
    transient_faults: int = 0
    #: retries issued to heal transient failures
    fault_retries: int = 0
    #: extra latency charged for delayed responses + retry backoff
    fault_delay_cycles: int = 0
    #: background evictions forced by the degradation path (stash pressure)
    forced_evictions: int = 0


#: the :class:`BackendStats` fields only a wired fault ladder moves.  A
#: ``SimResult`` has no field for them: they ride in ``extra`` (and under
#: ``faults.*`` in a registry) when a ladder is wired and nowhere otherwise.
FAULT_COUNTERS = (
    "transient_faults",
    "fault_retries",
    "fault_delay_cycles",
    "forced_evictions",
)


def sum_counters(snapshots: Iterable[Optional[Dict[str, int]]]) -> Dict[str, int]:
    """Key-wise sum of ``{name: count}`` snapshots, in first-seen key order;
    ``None`` entries (a component that is not wired) are skipped."""
    total: Dict[str, int] = {}
    for counters in snapshots:
        for name, value in (counters or {}).items():
            total[name] = total.get(name, 0) + value
    return total


class MemoryBackend(ABC):
    """Timing + functional model of everything behind the LLC.

    The class attributes are the inert answers of a backend with no ORAM
    behind it; the ORAM backends override them.
    """

    #: the ORAM controllers behind the LLC, in channel order
    shards: Sequence["MemoryBackend"] = ()
    #: interleave width a bank reports (``extra["num_shards"]``, the
    #: ``bank.num_shards`` gauge); ``None`` for DRAM and a lone controller
    bank_width: Optional[int] = None
    #: addresses ``0 .. num_blocks - 1`` are valid (DRAM: unbounded)
    num_blocks = 1 << 62
    #: span sink of the ORAM controllers; ``None`` = tracing off
    recorder = None

    def __init__(self) -> None:
        self.stats = BackendStats()
        self.busy_until = 0

    def set_llc_probe(self, probe: Callable[[int], bool]) -> None:
        """Hand the backend the LLC tag probe (default: nobody asks)."""

    def set_recorder(self, recorder) -> None:
        """Install a span recorder (default: nothing emits spans)."""

    def snapshot_shards(self) -> List[dict]:
        """One counter snapshot per ORAM controller, in channel order."""
        return []

    @abstractmethod
    def demand_access(self, addr: int, now: int, is_write: bool) -> Answer:
        """Serve an LLC demand miss issued at cycle ``now``; returns
        ``(completion_cycle, fills)`` (module docstring), ``addr`` among
        the fills."""

    def prefetch_access(self, addr: int, now: int) -> Optional[Answer]:
        """Serve a prefetch request: ``(completion_cycle, fills)`` as
        :meth:`demand_access`, every fill a prefetched line, or ``None``
        when the backend declines.

        Default: backends do not support traditional prefetching.
        """
        return None

    def evict_line(self, addr: int, dirty: bool, now: int) -> None:
        """An LLC victim left the cache hierarchy (default: ignored)."""

    def on_llc_hit(self, addr: int) -> None:
        """The processor hit ``addr`` in the LLC (prefetch-bit bookkeeping)."""

    def finalize(self, now: int) -> None:
        """Simulation ended at cycle ``now`` (flush window statistics)."""
