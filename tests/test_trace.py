"""Unit tests for the trace container and its file format."""

from array import array

import pytest

from repro.sim.trace import Trace


class TestTrace:
    def test_append_and_iterate(self):
        trace = Trace("t", footprint_blocks=16)
        trace.append(5, 3)
        trace.append(0, 7, is_write=True)
        assert len(trace) == 2
        assert list(trace) == [(5, 3, 0), (0, 7, 1)]

    def test_append_validates_footprint(self):
        trace = Trace("t", footprint_blocks=4)
        with pytest.raises(ValueError):
            trace.append(0, 4)
        with pytest.raises(ValueError):
            trace.append(0, -1)

    def test_footprint_validation(self):
        with pytest.raises(ValueError):
            Trace("t", footprint_blocks=0)

    def test_extend(self):
        trace = Trace("t", footprint_blocks=8)
        trace.extend([(1, 2, 0), (3, 4, 1)])
        assert len(trace) == 2

    def test_metrics(self):
        trace = Trace("t", footprint_blocks=8)
        trace.extend([(10, 1, 0), (20, 2, 1), (30, 1, 1)])
        assert trace.total_gap_cycles == 60
        assert trace.write_fraction == pytest.approx(2 / 3)

    def test_empty_metrics(self):
        trace = Trace("t", footprint_blocks=8)
        assert trace.write_fraction == 0.0
        assert trace.total_gap_cycles == 0


class TestIncrementalSums:
    """total_gap_cycles / write_fraction are always correct, however the
    entries got there."""

    @staticmethod
    def recomputed(trace):
        gaps = sum(e[0] for e in trace.entries)
        writes = sum(e[2] for e in trace.entries)
        return gaps, writes / len(trace.entries) if trace.entries else 0.0

    def test_append_keeps_sums_in_sync(self):
        trace = Trace("t", footprint_blocks=32)
        for i in range(20):
            trace.append(i, i % 32, is_write=(i % 3 == 0))
            gaps, frac = self.recomputed(trace)
            assert trace.total_gap_cycles == gaps
            assert trace.write_fraction == pytest.approx(frac)

    def test_extend_validates_and_sums_once(self):
        trace = Trace("t", footprint_blocks=8)
        trace.extend([(1, 2, 0), (3, 4, 1)])
        assert trace.total_gap_cycles == 4
        assert trace.write_fraction == pytest.approx(0.5)
        with pytest.raises(ValueError):
            trace.extend([(0, 8, 0)])  # out-of-footprint rejected
        assert len(trace) == 2  # nothing partial slipped in before the bad entry

    def test_extend_rejects_before_mutating(self):
        trace = Trace("t", footprint_blocks=8)
        with pytest.raises(ValueError):
            trace.extend([(0, 1, 0), (0, 99, 0)])
        assert len(trace) == 0
        assert trace.total_gap_cycles == 0

    @staticmethod
    def push(trace, gap, addr, is_write):
        trace.gaps.append(gap)
        trace.addrs.append(addr)
        trace.writes.append(is_write)

    def test_direct_entries_append_lazily_absorbed(self):
        # Generators append straight to the trace's columns; the next
        # property read must count them.
        trace = Trace("t", footprint_blocks=16)
        trace.append(5, 1)
        assert trace.total_gap_cycles == 5
        self.push(trace, 7, 2, 1)
        self.push(trace, 9, 3, 0)
        assert trace.total_gap_cycles == 21
        assert trace.write_fraction == pytest.approx(1 / 3)
        trace.append(4, 4, is_write=True)
        assert trace.total_gap_cycles == 25
        assert trace.write_fraction == pytest.approx(2 / 4)

    def test_entries_truncation_forces_recompute(self):
        trace = Trace("t", footprint_blocks=16)
        trace.extend([(10, 1, 1), (20, 2, 0), (30, 3, 1)])
        assert trace.total_gap_cycles == 60
        for column in (trace.gaps, trace.addrs, trace.writes):
            del column[1:]
        assert trace.total_gap_cycles == 10
        assert trace.write_fraction == pytest.approx(1.0)

    def test_entries_replacement_forces_recompute(self):
        trace = Trace("t", footprint_blocks=16)
        trace.extend([(10, 1, 1), (20, 2, 0)])
        assert trace.total_gap_cycles == 30
        trace.gaps, trace.addrs, trace.writes = array("q", [1]), array("q", [1]), bytearray([0])
        assert trace.total_gap_cycles == 1
        assert trace.write_fraction == pytest.approx(0.0)


class TestIO:
    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace("myworkload", footprint_blocks=32)
        trace.extend([(1, 2, 0), (3, 4, 1), (0, 31, 0)])
        path = str(tmp_path / "trace.txt")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "myworkload"
        assert loaded.footprint_blocks == 32
        assert loaded.entries == trace.entries

    def test_load_without_header_infers_footprint(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("1 5 0\n2 9 1\n")
        loaded = Trace.load(str(path))
        assert loaded.footprint_blocks == 10
        assert loaded.entries == [(1, 5, 0), (2, 9, 1)]
