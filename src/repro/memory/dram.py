"""Insecure DRAM baseline (section 5.1).

"The DRAM in Graphite is simply modeled by a flat latency", 16 GB/s of pin
bandwidth, and bank-level parallelism: "the insecure DRAM model can exploit
bank-level parallelism and issue multiple memory requests at the same
time".  We model each access as flat latency at its bank, with the shared
pin bus metering aggregate bandwidth (one line's transfer time per access).

Prefetch requests are accepted at low priority: a prefetch only occupies
the bus slack between demand requests, which is exactly why traditional
prefetching works on DRAM and not on ORAM (section 3.1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import DRAMConfig
from repro.memory.backend import Answer, MemoryBackend
from repro.memory.timing import transfer_cycles


class DRAMBackend(MemoryBackend):
    """Flat-latency, banked DRAM with pin-bandwidth metering."""

    def __init__(self, config: DRAMConfig, block_bytes: int):
        super().__init__()
        self.config = config
        self.block_bytes = block_bytes
        self.transfer_cycles = transfer_cycles(config, block_bytes)
        self._num_banks = config.num_banks
        self._latency = config.latency_cycles
        self._bank_free: List[int] = [0] * config.num_banks
        self._bus_free = 0

    def demand_access(self, addr: int, now: int, is_write: bool) -> Answer:
        """Fetch line ``addr`` (it lives in bank ``addr % num_banks``).

        This is the one bank/bus schedule of any line transfer: a prefetch
        and a write-back are scheduled by calling it too, and move the one
        transfer they make from ``demand_requests`` to their own counter.
        """
        bank_free = self._bank_free
        bank = addr % self._num_banks
        start = bank_free[bank]
        if start < now:
            start = now
        # The line crosses the pins after the array access; pin slots are
        # granted in arrival order.
        ready = bank_free[bank] = start + self._latency
        transfer_start = self._bus_free
        if transfer_start < ready:
            transfer_start = ready
        completion = self._bus_free = transfer_start + self.transfer_cycles
        if completion > self.busy_until:
            self.busy_until = completion
        stats = self.stats
        stats.demand_requests += 1
        stats.memory_accesses += 1
        stats.busy_cycles += self.transfer_cycles
        return completion, [addr]

    def prefetch_access(self, addr: int, now: int) -> Optional[Answer]:
        """Prefetches ride the bus slack; declined when the bus is backlogged."""
        if self._bus_free > now + self.config.latency_cycles:
            return None
        stats = self.stats
        stats.prefetch_requests += 1
        stats.demand_requests -= 1  # the transfer below is not a demand
        return self.demand_access(addr, now, False)

    def evict_line(self, addr: int, dirty: bool, now: int) -> None:
        """Dirty write-backs consume bandwidth but never stall the core.

        The write-back goes through the same bank/bus schedule as demand
        and prefetch traffic -- it occupies the victim line's bank for an
        array access and the pins for one line transfer.  A clean victim
        costs nothing.
        """
        if dirty:
            stats = self.stats
            stats.write_accesses += 1
            stats.demand_requests -= 1  # the transfer below is not a demand
            self.demand_access(addr, now, False)
