"""Unit tests for SimResult and its derived metrics."""

import pytest

from repro.sim.results import SimResult


def make_result(cycles=1000, **kwargs):
    defaults = dict(workload="w", scheme="s", cycles=cycles, trace_entries=100)
    defaults.update(kwargs)
    return SimResult(**defaults)


class TestDerivedMetrics:
    def test_speedup_definition(self):
        base = make_result(cycles=1200)
        fast = make_result(cycles=1000)
        # "20% performance gain" means base/this - 1 = 0.2.
        assert fast.speedup_over(base) == pytest.approx(0.2)
        assert base.speedup_over(fast) == pytest.approx(-1 / 6)
        assert base.speedup_over(base) == 0.0

    def test_total_memory_accesses_energy_proxy(self):
        r = make_result(memory_accesses=90, dummy_accesses=10)
        assert r.total_memory_accesses == 100

    def test_normalized_memory_accesses(self):
        base = make_result(memory_accesses=100)
        r = make_result(memory_accesses=80, dummy_accesses=4)
        assert r.normalized_memory_accesses(base) == pytest.approx(0.84)

    def test_normalized_completion_time(self):
        base = make_result(cycles=1000)
        r = make_result(cycles=2500)
        assert r.normalized_completion_time(base) == pytest.approx(2.5)

    def test_prefetch_miss_rate(self):
        r = make_result(prefetch_hits=3, prefetch_misses=1)
        assert r.prefetch_miss_rate == pytest.approx(0.25)
        assert make_result().prefetch_miss_rate == 0.0

    def test_background_eviction_rate(self):
        r = make_result(demand_requests=90, dummy_accesses=10)
        assert r.background_eviction_rate == pytest.approx(0.1)

    def test_degenerate_guards(self):
        zero = make_result(cycles=0)
        with pytest.raises(ValueError):
            make_result().speedup_over(zero) if False else zero.speedup_over(make_result())
        with pytest.raises(ValueError):
            make_result().normalized_memory_accesses(make_result(memory_accesses=0))


class TestDelta:
    def test_delta_subtracts_additive_fields(self):
        start = make_result(
            cycles=100, llc_hits=10, llc_misses=5, memory_accesses=7, merges=1
        )
        final = make_result(
            cycles=300, llc_hits=25, llc_misses=11, memory_accesses=20, merges=4
        )
        final.stash_max_occupancy = 42
        delta = SimResult.delta(final, start)
        assert delta.cycles == 200
        assert delta.llc_hits == 15
        assert delta.llc_misses == 6
        assert delta.memory_accesses == 13
        assert delta.merges == 3
        # Watermarks keep the final value.
        assert delta.stash_max_occupancy == 42

    def test_summary_mentions_key_counters(self):
        text = make_result(llc_misses=9, dummy_accesses=2).summary()
        assert "9" in text and "w/s" in text
