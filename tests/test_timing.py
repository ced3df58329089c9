"""Unit tests for the ORAM/DRAM latency models.

The per-path cost has one definition,
``MemoryInterconnect.path_cycles_for``; these cases read it through
``build_interconnect`` (the flat, paper model unless said otherwise).
"""

import pytest  # noqa: F401 - approx

from repro.config import DRAMConfig, ORAMConfig
from repro.memory.dram import DRAMBackend
from repro.memory.interconnect import build_interconnect


class TestORAMTiming:
    def test_table1_path_latency_magnitude(self):
        """With Table 1 parameters a path access costs ~1350 cycles, and a
        request averaging ~0.75 PosMap misses lands near the paper's quoted
        2364-cycle Path ORAM latency."""
        model = build_interconnect(ORAMConfig(), DRAMConfig())
        assert 1200 <= model.path_cycles <= 1500
        # One demand access plus one recursion access straddles 2364.
        assert model.path_cycles < 2364 < 2 * model.path_cycles

    def test_path_bytes_formula(self):
        oram = ORAMConfig()
        model = build_interconnect(oram, DRAMConfig())
        levels = oram.nominal_levels
        assert model.bytes_per_path == (levels + 1) * oram.bucket_size * oram.block_bytes * 2

    def test_latency_scales_with_bandwidth(self):
        slow = build_interconnect(ORAMConfig(), DRAMConfig(bandwidth_gbps=4.0))
        fast = build_interconnect(ORAMConfig(), DRAMConfig(bandwidth_gbps=16.0))
        assert slow.path_cycles > 2 * fast.path_cycles

    def test_latency_scales_with_z(self):
        z3 = build_interconnect(ORAMConfig(bucket_size=3), DRAMConfig())
        z4 = build_interconnect(ORAMConfig(bucket_size=4), DRAMConfig())
        assert z4.path_cycles > z3.path_cycles

    def test_latency_scales_with_block_size(self):
        small = build_interconnect(ORAMConfig(block_bytes=64), DRAMConfig())
        large = build_interconnect(ORAMConfig(block_bytes=256), DRAMConfig())
        # Bigger lines: fewer levels (same capacity) but more bytes per level.
        assert large.bytes_per_path > small.bytes_per_path

    def test_access_cycles_multiplies(self):
        """A request needing n serialized paths costs n * path_cycles."""
        model = build_interconnect(ORAMConfig(), DRAMConfig())
        completion = 0
        for leaf in (0, 5, 9):
            completion = model.path_completion(leaf, completion)
        assert completion == 3 * model.path_cycles


class TestDRAMTiming:
    @staticmethod
    def line_fill(dram: DRAMConfig) -> int:
        """An idle DRAM's demand fill: flat latency + line transfer time."""
        return DRAMBackend(dram, 128).demand_access(0, 0, False)[0]

    def test_line_fill(self):
        # 100-cycle latency + 128 B over 16 B/cycle = 108.
        assert self.line_fill(DRAMConfig()) == 108

    def test_bandwidth_term(self):
        assert self.line_fill(DRAMConfig(bandwidth_gbps=4.0)) == 132
