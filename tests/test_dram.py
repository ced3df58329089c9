"""Unit tests for the DRAM backend timing model."""

from repro.config import DRAMConfig
from repro.memory.dram import DRAMBackend


def make_dram(**kwargs):
    return DRAMBackend(DRAMConfig(**kwargs), block_bytes=128)


class TestDemand:
    def test_single_access_latency(self):
        dram = make_dram()
        assert dram.demand_access(0, now=1000, is_write=False) == (1000 + 100 + 8, [0])

    def test_same_bank_serializes(self):
        dram = make_dram(num_banks=8)
        first, _ = dram.demand_access(0, now=0, is_write=False)
        second, _ = dram.demand_access(8, now=0, is_write=False)  # same bank
        assert second > first

    def test_different_banks_overlap(self):
        dram = make_dram(num_banks=8)
        first, _ = dram.demand_access(0, now=0, is_write=False)
        second, _ = dram.demand_access(1, now=0, is_write=False)
        # Bank latencies overlap; only the bus transfer serializes.
        assert second == first + 8

    def test_counts(self):
        dram = make_dram()
        dram.demand_access(0, 0, False)
        dram.demand_access(1, 0, False)
        assert dram.stats.demand_requests == 2
        assert dram.stats.memory_accesses == 2


class TestPrefetch:
    def test_prefetch_served_when_idle(self):
        dram = make_dram()
        # A prefetch fills only its own line; what makes it a prefetch is
        # the entry point, counted apart from demands.
        assert dram.prefetch_access(5, now=0) == (100 + 8, [5])
        assert dram.stats.prefetch_requests == 1
        assert dram.stats.demand_requests == 0

    def test_prefetch_declined_when_bus_backlogged(self):
        dram = make_dram(num_banks=1)
        for addr in range(20):
            dram.demand_access(addr, now=0, is_write=False)
        assert dram.prefetch_access(99, now=0) is None


class TestWriteback:
    def test_dirty_eviction_goes_through_the_bank_scheduler(self):
        dram = make_dram()
        dram.evict_line(3, dirty=True, now=0)
        assert dram.stats.write_accesses == 1
        assert dram.stats.memory_accesses == 1
        # The writeback is a full scheduled access: it occupies bank 3 and
        # then the pins (bus free at 108), so a demand to another bank
        # overlaps its array access but queues behind it on the bus.
        # (It used to bump only the bus, leaving its bank idle.)
        assert dram.demand_access(4, now=0, is_write=False) == (116, [4])
        # A demand to the *same* bank also waits for the array access.
        dram2 = make_dram(num_banks=8)
        dram2.evict_line(3, dirty=True, now=0)
        assert dram2.demand_access(11, now=0, is_write=False) == (100 + 100 + 8, [11])
        # A burst of writebacks backlogs the pins and delays demands further.
        dram3 = make_dram()
        for _ in range(20):
            dram3.evict_line(3, dirty=True, now=0)
        completion, _ = dram3.demand_access(4, now=0, is_write=False)
        assert completion > 116

    def test_clean_eviction_free(self):
        dram = make_dram()
        dram.evict_line(3, dirty=False, now=0)
        assert dram.stats.memory_accesses == 0
