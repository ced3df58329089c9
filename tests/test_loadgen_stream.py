"""The open-loop source is a stream: requests are built when they arrive.

``HeapSource`` below is the heap source the stream replaced: it built every
:class:`Request` at set-up and pushed it onto a ``(cycle, req_id)`` heap.
It is the oracle -- the stream must hand out the same requests, field for
field, at the same cycles, and say the same things about what is left.
"""

import gc
import heapq
import math
from bisect import bisect_left

import pytest

from repro.serve import OpenLoopSource, Request
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng, zipf_cdf
from repro.workloads.dbms import ycsb_trace
from repro.workloads.synthetic import locality_mix_trace

FIELDS = (
    "req_id", "tenant", "addr", "is_write", "arrival_cycle", "deadline_cycles",
    "client",
)


class HeapSource:
    """The heap-based open-loop source, kept as the oracle."""

    def __init__(self, num_tenants):
        self.num_tenants = num_tenants
        self._heap = []
        self._next_id = 0
        self._max_addr = -1

    def _schedule(self, cycle, tenant, addr, is_write, deadline):
        request = Request(self._next_id, tenant, addr, is_write, cycle, deadline)
        heapq.heappush(self._heap, (cycle, request.req_id, request))
        self._next_id += 1
        self._max_addr = max(self._max_addr, addr)

    @classmethod
    def from_trace(cls, trace, num_tenants=1, deadline_cycles=30_000, load_scale=1.0):
        source = cls(num_tenants)
        now = 0.0
        for index, (gap, addr, is_write) in enumerate(trace.entries):
            now += gap / load_scale
            source._schedule(
                int(now), index % num_tenants, addr, bool(is_write), deadline_cycles
            )
        return source

    @classmethod
    def synthetic(cls, num_tenants, requests_per_tenant, *, footprint_per_tenant=2_048,
                  gap_mean=200.0, locality=0.5, write_fraction=0.2,
                  deadline_cycles=30_000, seed=42):
        source = cls(num_tenants)
        root = DeterministicRng(seed)
        seq_blocks = int(footprint_per_tenant * locality)
        if locality > 0.0 and seq_blocks == 0:
            seq_blocks = 1
        arrivals = []
        for tenant in range(num_tenants):
            rng = root.fork(17 + tenant)
            base = tenant * footprint_per_tenant
            pointer = 0
            now = 0
            for _ in range(requests_per_tenant):
                now += rng.expovariate_int(gap_mean)
                if seq_blocks > 0 and rng.random() < locality:
                    offset = pointer
                    pointer = (pointer + 1) % seq_blocks
                elif seq_blocks >= footprint_per_tenant:
                    offset = rng.randint(0, footprint_per_tenant - 1)
                else:
                    offset = rng.randint(seq_blocks, footprint_per_tenant - 1)
                is_write = rng.random() < write_fraction
                arrivals.append((now, tenant, base + offset, is_write))
        arrivals.sort(key=lambda item: (item[0], item[1]))
        for cycle, tenant, addr, is_write in arrivals:
            source._schedule(cycle, tenant, addr, is_write, deadline_cycles)
        return source

    def next_arrival_cycle(self):
        return self._heap[0][0] if self._heap else None

    def take_arrivals(self, now):
        due = []
        while self._heap and self._heap[0][0] <= now:
            due.append(heapq.heappop(self._heap)[2])
        return due

    @property
    def exhausted(self):
        return not self._heap

    @property
    def footprint_blocks(self):
        return self._max_addr + 1


def fields(requests):
    return [tuple(getattr(r, name) for name in FIELDS) for r in requests]


def assert_same_stream(stream, oracle, nows):
    """Drain both at each ``now`` in turn; compare after every step."""
    assert stream.footprint_blocks == oracle.footprint_blocks
    assert stream.next_arrival_cycle() == oracle.next_arrival_cycle()
    assert stream.exhausted == oracle.exhausted
    taken = 0
    for now in nows:
        got = stream.take_arrivals(now)
        assert fields(got) == fields(oracle.take_arrivals(now))
        taken += len(got)
        assert stream.next_arrival_cycle() == oracle.next_arrival_cycle()
        assert stream.exhausted == oracle.exhausted
    assert stream.exhausted and taken > 0
    assert stream.take_arrivals(1 << 62) == []
    assert stream.footprint_blocks == oracle.footprint_blocks


def stepped(source_cycles, steps=7):
    """Increasing cut-offs through a schedule, ending past its last arrival."""
    last = max(source_cycles, default=0)
    return [last * step // steps for step in range(steps)] + [last, last + 1]


class TestFromTrace:
    @pytest.mark.parametrize("load_scale", [0.15, 1.0, 2.0])
    @pytest.mark.parametrize("tenants", [1, 4])
    def test_matches_the_heap(self, load_scale, tenants):
        trace = locality_mix_trace(0.6, footprint_blocks=256, accesses=600, seed=3)
        stream = OpenLoopSource.from_trace(
            trace, tenants, load_scale=load_scale, deadline_cycles=9_000
        )
        oracle = HeapSource.from_trace(
            trace, tenants, deadline_cycles=9_000, load_scale=load_scale
        )
        cycles = [cycle for cycle, _id, _r in oracle._heap]
        assert_same_stream(stream, oracle, stepped(cycles))

    def test_one_call_drains_the_heap_order(self):
        trace = ycsb_trace(num_records=64, operations=120, zipf_theta=0.99, seed=5)
        stream = OpenLoopSource.from_trace(trace, 4, load_scale=0.15)
        oracle = HeapSource.from_trace(trace, 4, load_scale=0.15)
        assert_same_stream(stream, oracle, [1 << 62])

    def test_zero_gaps_share_one_cycle(self):
        trace = Trace(name="burst", footprint_blocks=64)
        for index in range(40):
            trace.append(0 if index % 10 else 7, index, index % 3 == 0)
        stream = OpenLoopSource.from_trace(trace, 4, load_scale=1.0)
        oracle = HeapSource.from_trace(trace, 4)
        assert stream.next_arrival_cycle() == 7
        assert len(stream.take_arrivals(7)) == len(oracle.take_arrivals(7)) == 10
        assert_same_stream(stream, oracle, [13, 14, 21, 28])

    def test_empty_trace_is_exhausted(self):
        source = OpenLoopSource.from_trace(Trace(name="none", footprint_blocks=1))
        assert source.exhausted and source.next_arrival_cycle() is None
        assert source.take_arrivals(1 << 62) == [] and source.footprint_blocks == 0

    @pytest.mark.parametrize("load_scale", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_load_scale_that_is_not_positive_and_finite(self, load_scale):
        trace = locality_mix_trace(0.5, footprint_blocks=64, accesses=10)
        with pytest.raises(ValueError, match="load_scale"):
            OpenLoopSource.from_trace(trace, load_scale=load_scale)

    def test_building_creates_no_object_per_entry(self):
        """Set-up is O(1) in tracked objects: 18,000 entries (the
        ``serve_zipf_open`` trace's length) build no request before it is
        due."""
        trace = locality_mix_trace(0.5, footprint_blocks=1_024, accesses=18_000)
        gc.collect()
        before = len(gc.get_objects())
        source = OpenLoopSource.from_trace(trace, 4, load_scale=0.15)
        gc.collect()
        assert len(gc.get_objects()) - before <= 16
        assert not source.exhausted


class TestSynthetic:
    def test_cross_tenant_ties_match_the_heap(self):
        kwargs = dict(footprint_per_tenant=64, gap_mean=3.0, seed=9)
        stream = OpenLoopSource.synthetic(4, 60, **kwargs)
        oracle = HeapSource.synthetic(4, 60, **kwargs)
        tenants_at = {}
        for cycle, _id, request in oracle._heap:
            tenants_at.setdefault(cycle, set()).add(request.tenant)
        assert any(len(tenants) > 1 for tenants in tenants_at.values())
        assert_same_stream(stream, oracle, stepped(tenants_at))

    def test_golden_sources_keep_their_footprint(self):
        """``footprint_blocks`` of the golden serve scenarios' open-loop
        sources (``tests/test_serve_golden.py``) matches the heap's, before
        and after a drain."""
        for kwargs in (
            dict(num_tenants=4, requests_per_tenant=120, footprint_per_tenant=256,
                 gap_mean=700.0, locality=0.6, seed=11),
            dict(num_tenants=2, requests_per_tenant=300, footprint_per_tenant=256,
                 gap_mean=250.0, seed=21),
        ):
            stream = OpenLoopSource.synthetic(**kwargs)
            oracle = HeapSource.synthetic(**kwargs)
            assert_same_stream(stream, oracle, [1 << 62])


class TestArrivalTuples:
    def test_refuses_arrivals_out_of_cycle_order(self):
        with pytest.raises(ValueError, match="cycle order"):
            OpenLoopSource(1, None, [(5, 0, 1, False), (4, 0, 2, False)])

    def test_a_hand_made_schedule_is_walked_in_place(self):
        arrivals = [(0, 1, 9, True), (0, 0, 3, False), (6, 1, 4, False)]
        source = OpenLoopSource(2, None, arrivals, deadline_cycles=77)
        assert fields(source.take_arrivals(0)) == [
            (0, 1, 9, True, 0, 77, -1), (1, 0, 3, False, 0, 77, -1),
        ]
        assert source.next_arrival_cycle() == 6 and not source.exhausted
        assert fields(source.take_arrivals(6)) == [(2, 1, 4, False, 6, 77, -1)]
        assert source.exhausted and source.footprint_blocks == 10


def reference_ycsb_trace(num_records=4096, operations=8_000, read_fraction=0.9,
                         zipf_theta=0.6, gap_mean=60.0, row_blocks=8,
                         index_touches=1, seed=21):
    """``ycsb_trace`` as it drew through the ``DeterministicRng`` wrappers."""
    rng = DeterministicRng(seed)
    data_blocks = num_records * row_blocks
    index_blocks = max(2, num_records * 2)
    trace = Trace(name="YCSB", footprint_blocks=data_blocks + index_blocks)
    for _ in range(operations):
        record = rng.zipf(num_records, zipf_theta)
        is_write = 0 if rng.random() < read_fraction else 1
        for _level in range(index_touches):
            index_block = data_blocks + rng.randint(0, index_blocks - 1)
            trace.entries.append((rng.expovariate_int(gap_mean), index_block, 0))
        base = record * row_blocks
        trace.entries.append((rng.expovariate_int(gap_mean * 3), base, is_write))
        for offset in range(1, row_blocks):
            trace.entries.append((rng.expovariate_int(gap_mean), base + offset, is_write))
    return trace


class TestYcsbDraws:
    @pytest.mark.parametrize("kwargs", [
        dict(num_records=2_048, operations=300, read_fraction=0.8, zipf_theta=0.99, seed=1),
        dict(num_records=64, operations=200, index_touches=2, row_blocks=3, seed=7),
        dict(num_records=32, operations=50, gap_mean=0.0, seed=2),
    ])
    def test_inlined_draws_match_the_wrapper_calls(self, kwargs):
        assert ycsb_trace(**kwargs).entries == reference_ycsb_trace(**kwargs).entries

    def test_zipf_bisects_the_shared_cdf(self):
        cdf = zipf_cdf(100, 0.99)
        assert zipf_cdf(100, 0.99) is cdf and len(cdf) == 100
        assert cdf[-1] == pytest.approx(1.0)
        rng, twin = DeterministicRng(4), DeterministicRng(4)
        assert [rng.zipf(100, 0.99) for _ in range(500)] == [
            bisect_left(cdf, twin.random()) for _ in range(500)
        ]
