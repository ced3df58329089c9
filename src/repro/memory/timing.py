"""The one ceil of the latency model (sections 2.6, 5.1).

The paper's DRAM is "simply modeled by a flat latency", with 16 GB/s of pin
bandwidth on a 1 GHz chip (16 bytes/cycle), and "a single ORAM access
saturates the available DRAM bandwidth", so ORAM accesses are serialized
and their latency is dominated by moving the path:

    path bytes = (L + 1) * Z * block_bytes * 2      (read + write)
    path cycles = path bytes / bytes_per_cycle + DRAM latency

With Table 1's parameters (8 GB ORAM -> 26-level nominal tree, Z=3, 128 B
blocks, 16 B/cycle) one path access costs ~1348 cycles; a request that
misses the PosMap block cache pays one extra path access per uncached
recursion level, which lands the *average* access latency in the
neighbourhood of the paper's quoted 2364 cycles (the exact figure depends
on PosMap locality; bench_table1 prints both).

The path-cost formula itself lives on
:meth:`repro.memory.interconnect.MemoryInterconnect.path_cycles_for` (one
definition under both interconnects); a DRAM line fill is
``latency_cycles + transfer_cycles(dram, block_bytes)``, scheduled by
:class:`repro.memory.dram.DRAMBackend`.
"""

from __future__ import annotations

import math

from repro.config import DRAMConfig


def transfer_cycles(dram: DRAMConfig, nbytes: int) -> int:
    """Cycles to move ``nbytes`` over one channel's pins (at least one).

    Every timing consumer (the insecure DRAM backend, the channel
    interconnect's bursts) derives its bus occupancy from this one ceil so
    the arithmetic cannot drift between models.
    """
    return max(1, int(math.ceil(nbytes / dram.bytes_per_cycle)))
