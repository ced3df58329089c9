"""Multi-core simulation: several in-order cores sharing the LLC and ORAM.

The paper's Graphite setup is a tiled multicore with one memory controller
(section 5.1); the single-core run of :mod:`repro.sim.system` is its
steady-state equivalent.  This module is the second *driver* of that one
tile, for contention studies: each core replays its own trace through a
private L1; the LLC, the super block scheme, the core-side prefetcher and
the (serialized!) ORAM controller are shared.  Cores interleave by
simulated time -- at every step the core with the smallest local clock
executes its next reference -- so memory-bound cores naturally queue
behind each other at the ORAM.

Everything but the interleave is :class:`~repro.sim.system.SecureSystem`'s:
the cache hierarchy (built with ``num_cores`` L1s), the LLC probe / victim
wiring, the in-flight prefetch-fill rule, the prefetcher plumbing and the
result fold.

Note the security angle: the ORAM serializes *everyone's* accesses into one
indistinguishable stream, so co-running programs cannot be told apart on
the memory bus either.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.memory.backend import MemoryBackend
from repro.sim.results import SimResult
from repro.sim.system import SecureSystem, build_backend
from repro.sim.trace import Trace


class MultiCoreSystem(SecureSystem):
    """N cores, private L1s, one shared LLC, one shared memory backend."""

    def __init__(
        self, config: SystemConfig, backend: MemoryBackend, num_cores: int, prefetcher=None
    ):
        if num_cores < 1:
            raise ValueError("need at least one core")
        super().__init__(config, backend, "shared", prefetcher, num_cores)
        self.num_cores = num_cores
        #: optional miss-stream tap: while this is a list, every demand
        #: access the backend sees is appended as ``(addr, now, is_write)``
        #: in issue order -- exactly the request stream a
        #: :class:`~repro.parallel.runtime.ParallelShardRuntime` replays
        #: (:func:`capture_miss_stream` installs one).
        self.request_capture: Optional[list] = None

    # ----------------------------------------------------------------- build
    @classmethod
    def build(
        cls, scheme: str, traces: Sequence[Trace], config: Optional[SystemConfig] = None, **wiring
    ) -> "MultiCoreSystem":
        """Assemble a shared backend sized for the union footprint.

        ``scheme`` is any :class:`~repro.sim.system.SchemeLabel` label and
        ``wiring`` any keyword of :func:`~repro.sim.system.build_backend`:
        ``num_shards > 1`` channel-interleaves the ORAM over independent
        controller instances, so misses from different cores to different
        shards overlap their path accesses; a ``_pre`` / ``_spre`` /
        ``_mpre`` suffix adds one core-side prefetcher trained on the
        merged miss stream.
        """
        config = config or SystemConfig()
        footprint = max(trace.footprint_blocks for trace in traces)
        backend, prefetcher = build_backend(scheme, footprint, config, **wiring)
        return cls(config, backend, len(traces), prefetcher)

    # ------------------------------------------------------------------- run
    def run(self, traces: Sequence[Trace]) -> List[SimResult]:  # type: ignore[override]
        """Interleave the traces; returns one result per core."""
        if len(traces) != self.num_cores:
            raise ValueError("one trace per core required")
        clocks = [0] * self.num_cores
        counts = [Counter() for _ in traces]  # level -> references, per core
        streams = [iter(trace.entries) for trace in traces]
        heads = [next(stream, None) for stream in streams]
        # Min-heap over (next event time, core); an entry leads with its gap.
        heap = [(head[0], core) for core, head in enumerate(heads) if head]
        heapq.heapify(heap)
        while heap:
            _, core = heapq.heappop(heap)
            gap, addr, is_write = heads[core]
            level, now = self._step(core, addr, bool(is_write), clocks[core] + gap)
            counts[core][level] += 1
            clocks[core] = now
            heads[core] = head = next(streams[core], None)
            if head:
                heapq.heappush(heap, (now + head[0], core))
        self.backend.finalize(max(clocks))
        # Every core reports the shared backend's totals.
        results = [
            self._collect(trace, now, hits["l1"], hits["llc"], hits["miss"], len(trace))
            for trace, now, hits in zip(traces, clocks, counts)
        ]
        for core, result in enumerate(results):
            result.workload += f"@core{core}"
        return results

    def _step(self, core: int, addr: int, is_write: bool, now: int) -> Tuple[str, int]:
        """One reference of ``core`` issued at ``now``: ``(level, done)``.

        The general form of the loop body :meth:`SecureSystem.run` inlines
        for its one core -- keep the two in step.
        """
        outcome = self.hierarchy.access(addr, is_write, core)
        level = outcome.level
        if level != "miss":
            # A hit on a still-in-flight prefetched line waits for its fill.
            pending = self._pending_fills.pop(addr, None)
            if pending is not None and pending > now:
                now = pending
            if level == "llc":
                self.backend.on_llc_hit(addr)
            return level, now + outcome.latency
        # Full miss: the in-order core stalls on the shared backend.
        self._now = now  # visible to the victim callback
        if self.request_capture is not None:
            self.request_capture.append((addr, now, is_write))
        result = self.backend.demand_access(addr, now, is_write)
        for fill_addr, _prefetched in result.filled:
            if fill_addr == addr:
                self.hierarchy.fill_demand(addr, is_write, core)
            else:
                self.hierarchy.fill_prefetch(fill_addr)
        self._now = now = result.completion_cycle + self.config.l1.hit_latency
        if self.prefetcher is not None:
            self._issue_prefetches(addr, now)
        return level, now


def capture_miss_stream(
    scheme: str, traces: Sequence[Trace], config: Optional[SystemConfig] = None, **wiring
) -> list:
    """Run a multicore sim and return its LLC-miss stream.

    The returned ``[(addr, now, is_write), ...]`` list is the demand
    request sequence the shared backend actually served, in issue order --
    a realistic address-tagged workload for replaying through a
    :class:`~repro.controller.sharded.ShardedORAMBank` or the
    process-parallel runtime (the parallel benchmarks feed their
    pointer-chase workloads through here).  Arguments are
    :meth:`MultiCoreSystem.build`'s.
    """
    system = MultiCoreSystem.build(scheme, traces, config, **wiring)
    system.request_capture = requests = []
    system.run(traces)
    return requests
