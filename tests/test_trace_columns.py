"""A trace's three columns behave as the list of entry tuples they replace.

``Trace.entries`` is a view made on read; every reader that used the list
of ``(gap, addr, is_write)`` tuples -- the tests, the digests
``benchmarks/perf/inputs.lock.json`` pins over ``repr(entries)`` -- must
see the same values, the same ``repr`` byte for byte, and the same
comparisons.  The last two tests hold what the columns are for: the
bytes a long trace keeps alive, and a ``repr`` that does not build the
list it prints.
"""

import os
import sys
import tempfile
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import Trace, TraceEntries
from repro.workloads.synthetic import locality_mix_trace

#: a footprint past every address below, 2**32 included
FOOTPRINT = 2**33
#: the edges of the integer encodings a repr or a column could get wrong
EDGES = [0, 1, 255, 256, 2**31 - 1, 2**31 + 1, 2**32, 2**32 + 5]

values = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**40))
entry_lists = st.lists(
    st.tuples(values, st.integers(0, FOOTPRINT - 1) | st.sampled_from(EDGES),
              st.integers(0, 1)),
    max_size=40,
)


def trace_of(entries):
    trace = Trace("t", footprint_blocks=FOOTPRINT)
    trace.extend(entries)
    return trace


class TestAgainstTheList:
    @settings(max_examples=150, deadline=None)
    @given(entry_lists, st.data())
    def test_reads_agree_with_the_list_of_tuples(self, expected, data):
        view = trace_of(expected).entries
        assert len(view) == len(expected)
        assert list(view) == expected
        assert view == expected and expected == view
        assert not view != expected
        assert repr(view) == repr(expected)
        for index in range(-len(expected), len(expected)):
            assert view[index] == expected[index]
        window = data.draw(st.slices(len(expected)))
        assert view[window] == expected[window]
        assert list(view[window]) == expected[window]
        assert repr(view[window]) == repr(expected[window])

    @settings(max_examples=60, deadline=None)
    @given(entry_lists, entry_lists)
    def test_equality_is_the_lists(self, first, second):
        assert (trace_of(first).entries == second) == (first == second)
        assert (trace_of(first).entries == trace_of(second).entries) == (first == second)

    @settings(max_examples=60, deadline=None)
    @given(entry_lists)
    def test_save_load_round_trips(self, expected):
        trace = trace_of(expected)
        handle, path = tempfile.mkstemp(suffix=".trace")
        os.close(handle)
        try:
            trace.save(path)
            loaded = Trace.load(path)
        finally:
            os.unlink(path)
        assert loaded.footprint_blocks == FOOTPRINT
        assert loaded.entries == expected
        assert loaded == trace

    def test_repr_at_the_edges(self):
        assert repr(Trace("t", 1).entries) == "[]"
        assert repr(trace_of([(3, 4, 1)]).entries) == "[(3, 4, 1)]"
        edges = [(value, value, value & 1) for value in EDGES]
        assert repr(trace_of(edges).entries) == repr(edges)
        assert [is_write for _, _, is_write in trace_of(edges).entries] == [0, 1, 1, 0, 1, 1, 0, 1]

    def test_a_repr_longer_than_one_piece(self):
        trace = locality_mix_trace(0.8, accesses=10_000, seed=3)
        assert repr(trace.entries) == repr(list(trace.entries))

    def test_the_view_is_live_and_not_a_list(self):
        trace = Trace("t", footprint_blocks=8)
        view = trace.entries
        trace.append(2, 3, is_write=True)
        assert view == [(2, 3, 1)] and view[-1] == (2, 3, 1)
        assert isinstance(view[:], TraceEntries)
        assert view != ((2, 3, 1),)  # a tuple never equalled the list either


class TestFootprint:
    def test_a_long_trace_keeps_at_most_twenty_bytes_per_entry(self):
        accesses = 100_000
        tracemalloc.start()
        try:
            trace = locality_mix_trace(0.8, accesses=accesses, seed=1)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == accesses
        assert held / accesses <= 20  # a list of tuples held about 100

    def test_repr_peaks_below_twice_its_text(self):
        trace = locality_mix_trace(0.8, accesses=100_000, seed=1)
        tracemalloc.start()
        try:
            text = repr(trace.entries)
            _held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sys.getsizeof(text)
