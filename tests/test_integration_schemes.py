"""Cross-module integration tests: the paper's headline claims in miniature.

These are slower than unit tests (full system simulations) but much smaller
than the benchmark suite; they pin the qualitative results the benchmarks
measure at scale.
"""

import pytest

from repro.analysis.experiments import run_schemes
from repro.config import CacheConfig, ORAMConfig, SystemConfig
from repro.workloads.synthetic import locality_mix_trace, uniform_random_trace


@pytest.fixture(scope="module")
def mini_config():
    """A shrunken experiment config: small caches, small tree, fast runs."""
    return SystemConfig(
        oram=ORAMConfig(levels=9, bucket_size=4, stash_blocks=60, utilization=0.65),
        l1=CacheConfig(capacity_bytes=4 * 1024, associativity=4),
        llc=CacheConfig(capacity_bytes=32 * 1024, associativity=8, hit_latency=8),
    )


@pytest.fixture(scope="module")
def high_locality_results(mini_config):
    trace = locality_mix_trace(
        locality=0.9, footprint_blocks=1024, accesses=12_000, gap_mean=20
    )
    return run_schemes(
        trace, ["dram", "oram", "stat", "dyn"], config=mini_config, warmup_fraction=0.4
    )


@pytest.fixture(scope="module")
def no_locality_results(mini_config):
    trace = uniform_random_trace(footprint_blocks=2048, accesses=10_000, gap_mean=20)
    return run_schemes(
        trace, ["oram", "stat", "dyn"], config=mini_config, warmup_fraction=0.4
    )


class TestHeadlineClaims:
    def test_oram_costs_an_order_of_magnitude(self, high_locality_results):
        res = high_locality_results
        slowdown = res["oram"].cycles / res["dram"].cycles
        assert slowdown > 3.0

    def test_dyn_gains_with_locality(self, high_locality_results):
        res = high_locality_results
        assert res["dyn"].speedup_over(res["oram"]) > 0.1

    def test_dyn_approaches_stat_with_locality(self, high_locality_results):
        res = high_locality_results
        stat = res["stat"].speedup_over(res["oram"])
        dyn = res["dyn"].speedup_over(res["oram"])
        assert dyn > 0.5 * stat

    def test_dyn_saves_energy_with_locality(self, high_locality_results):
        res = high_locality_results
        assert res["dyn"].normalized_memory_accesses(res["oram"]) < 0.95

    def test_dyn_harmless_without_locality(self, no_locality_results):
        res = no_locality_results
        assert abs(res["dyn"].speedup_over(res["oram"])) < 0.05

    def test_stat_not_better_than_dyn_without_locality(self, no_locality_results):
        res = no_locality_results
        stat = res["stat"].speedup_over(res["oram"])
        dyn = res["dyn"].speedup_over(res["oram"])
        assert dyn >= stat - 0.02

    def test_dyn_merges_only_with_locality(self, high_locality_results, no_locality_results):
        merged_with = high_locality_results["dyn"].prefetch_hits
        merged_without = no_locality_results["dyn"].prefetched_blocks
        assert merged_with > 0
        # Random traffic produces at most incidental merging.
        assert merged_without < merged_with


class TestVariantMatrix:
    """Every scheme variant runs end to end on one trace."""

    @pytest.mark.parametrize(
        "scheme",
        ["dram", "dram_pre", "oram", "oram_pre", "stat", "dyn",
         "dyn_sm_nb", "dyn_am_nb", "dyn_pre", "oram_intvl", "dyn_intvl"],
    )
    def test_variant_completes(self, mini_config, scheme):
        trace = locality_mix_trace(
            locality=0.5, footprint_blocks=512, accesses=1_500, gap_mean=15, seed=3
        )
        res = run_schemes(trace, [scheme], config=mini_config)[scheme]
        assert res.cycles > 0
        assert res.trace_entries == 1_500
