"""Multi-core simulation: several in-order cores sharing the LLC and ORAM.

The paper's Graphite setup is a tiled multicore with one memory controller
(section 5.1); the single-tile simulator in :mod:`repro.sim.system` is its
steady-state equivalent.  This module adds the multi-core shape for
contention studies: each core replays its own trace through a private L1;
the LLC, the super block scheme, and the (serialized!) ORAM controller are
shared.  Cores interleave by simulated time -- at every step the core with
the smallest local clock executes its next reference -- so memory-bound
cores naturally queue behind each other at the ORAM.

Note the security angle: the ORAM serializes *everyone's* accesses into one
indistinguishable stream, so co-running programs cannot be told apart on
the memory bus either.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from repro.cache.set_associative import SetAssociativeCache
from repro.config import SystemConfig
from repro.memory.backend import MemoryBackend
from repro.parallel.merge import fold_backend
from repro.sim.results import SimResult
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace


class MultiCoreSystem:
    """N cores, private L1s, one shared LLC, one shared memory backend."""

    def __init__(self, config: SystemConfig, backend: MemoryBackend, num_cores: int):
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.config = config
        self.backend = backend
        self.num_cores = num_cores
        self._now_global = 0
        self.llc = SetAssociativeCache(config.llc, name="llc")
        self.l1s = [SetAssociativeCache(config.l1, name=f"l1.{i}") for i in range(num_cores)]
        backend.set_llc_probe(self.llc.contains)
        #: optional miss-stream tap: when a list is installed via
        #: :meth:`capture_requests_into`, every demand access the backend
        #: sees is appended as ``(addr, now, is_write)`` in issue order --
        #: exactly the request stream a
        #: :class:`~repro.parallel.runtime.ParallelShardRuntime` replays.
        self._request_capture: Optional[list] = None

    def capture_requests_into(self, buffer: list) -> list:
        """Record the LLC-miss request stream of the next run into *buffer*."""
        self._request_capture = buffer
        return buffer

    # ----------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        scheme: str,
        traces: Sequence[Trace],
        config: Optional[SystemConfig] = None,
        num_shards: int = 1,
    ) -> "MultiCoreSystem":
        """Assemble a shared backend sized for the union footprint.

        ``num_shards > 1`` channel-interleaves the ORAM over independent
        controller instances; misses from different cores to different
        shards overlap their path accesses.
        """
        from repro.analysis.experiments import experiment_config

        config = config or experiment_config()
        footprint = max(trace.footprint_blocks for trace in traces)
        donor = SecureSystem.build(
            scheme, footprint_blocks=footprint, config=config, num_shards=num_shards
        )
        return cls(config, donor.backend, num_cores=len(traces))

    # ------------------------------------------------------------------- run
    def run(self, traces: Sequence[Trace]) -> List[SimResult]:
        """Interleave the traces; returns one result per core."""
        if len(traces) != self.num_cores:
            raise ValueError("one trace per core required")
        clocks = [0] * self.num_cores
        positions = [0] * self.num_cores
        stats = [
            {"l1": 0, "llc": 0, "miss": 0}
            for _ in range(self.num_cores)
        ]
        # Min-heap over (next event time, core).
        heap = [
            (traces[core].entries[0][0], core)
            for core in range(self.num_cores)
            if traces[core].entries
        ]
        heapq.heapify(heap)
        while heap:
            _, core = heapq.heappop(heap)
            gap, addr, is_write = traces[core].entries[positions[core]]
            positions[core] += 1
            now = clocks[core] + gap
            now = self._access(core, addr, bool(is_write), now, stats[core])
            clocks[core] = now
            if positions[core] < len(traces[core].entries):
                next_gap = traces[core].entries[positions[core]][0]
                heapq.heappush(heap, (now + next_gap, core))
        self.backend.finalize(max(clocks))
        return [
            self._collect(traces[core], clocks[core], stats[core], core)
            for core in range(self.num_cores)
        ]

    # ---------------------------------------------------------------- access
    def _access(self, core: int, addr: int, is_write: bool, now: int, stat) -> int:
        l1 = self.l1s[core]
        if l1.lookup(addr, is_write):
            if is_write:
                self.llc.mark_dirty(addr)
            stat["l1"] += 1
            return now + self.config.l1.hit_latency
        if self.llc.lookup(addr, is_write):
            stat["llc"] += 1
            self._fill_l1(core, addr)
            self.backend.on_llc_hit(addr)
            return now + self.config.l1.hit_latency + self.config.llc.hit_latency
        stat["miss"] += 1
        self._now_global = max(self._now_global, now)
        if self._request_capture is not None:
            self._request_capture.append((addr, now, is_write))
        result = self.backend.demand_access(addr, now, is_write)
        for fill_addr, _prefetched in result.filled:
            self._fill_llc(fill_addr, dirty=is_write and fill_addr == addr)
        self._fill_l1(core, addr)
        return result.completion_cycle + self.config.l1.hit_latency

    def _fill_l1(self, core: int, addr: int) -> None:
        self.l1s[core].insert(addr)

    def _fill_llc(self, addr: int, dirty: bool) -> None:
        victim = self.llc.insert(addr, dirty=dirty)
        if victim is not None:
            # Inclusive: drop the line from every private L1.
            for l1 in self.l1s:
                l1.invalidate(victim.addr)
            self.backend.evict_line(victim.addr, victim.dirty, self._now_global)

    # --------------------------------------------------------------- results
    def _collect(self, trace: Trace, cycles: int, stat, core: int) -> SimResult:
        # Every core reports the shared backend's totals.
        return fold_backend(
            SimResult(
                workload=f"{trace.name}@core{core}",
                scheme="shared",
                cycles=cycles,
                trace_entries=len(trace),
                l1_hits=stat["l1"],
                llc_hits=stat["llc"],
                llc_misses=stat["miss"],
            ),
            self.backend,
        )


def capture_miss_stream(
    scheme: str,
    traces: Sequence[Trace],
    config: Optional[SystemConfig] = None,
    num_shards: int = 1,
) -> list:
    """Run a multicore sim and return its LLC-miss stream.

    The returned ``[(addr, now, is_write), ...]`` list is the demand
    request sequence the shared backend actually served, in issue order --
    a realistic address-tagged workload for replaying through a
    :class:`~repro.controller.sharded.ShardedORAMBank` or the
    process-parallel runtime (the parallel benchmarks feed their
    pointer-chase workloads through here).
    """
    system = MultiCoreSystem.build(scheme, traces, config=config, num_shards=num_shards)
    requests = system.capture_requests_into([])
    system.run(traces)
    return requests
