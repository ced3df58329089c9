"""Multi-core simulation: several in-order cores sharing the LLC and ORAM.

The paper's Graphite setup is a tiled multicore with one memory controller
(section 5.1); the single-core run of :mod:`repro.sim.system` is its
steady-state equivalent.  This module runs the same tile with N cores, for
contention studies: each core replays its own trace through a private L1;
the LLC, the super block scheme, the core-side prefetcher and the
(serialized!) ORAM controller are shared.  Cores interleave by simulated
time -- the core with the smallest next issue time executes its next
reference -- so memory-bound cores naturally queue behind each other at
the ORAM.

The reference loop, interleave included, is
:class:`~repro.sim.system.SecureSystem`'s one loop; this module adds the
core count, the union-footprint build, the ``@core<i>`` labels and the
miss-stream capture.

Note the security angle: the ORAM serializes *everyone's* accesses into one
indistinguishable stream, so co-running programs cannot be told apart on
the memory bus either.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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
        shards overlap their path accesses; a ``_pre`` suffix adds one
        core-side stream prefetcher trained on the merged miss stream.
        """
        config = config or SystemConfig()
        footprint = max(trace.footprint_blocks for trace in traces)
        backend, prefetcher = build_backend(scheme, footprint, config, **wiring)
        return cls(config, backend, len(traces), prefetcher)

    # ------------------------------------------------------------------- run
    def run(self, traces: Sequence[Trace]) -> List[SimResult]:  # type: ignore[override]
        """Interleave the traces, one per core, from the tile clock;
        returns one result per core (each with the shared backend's
        totals)."""
        if len(traces) != self.num_cores:
            raise ValueError("one trace per core required")
        results = self._replay(traces)
        for core, result in enumerate(results):
            result.workload += f"@core{core}"
        return results


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
