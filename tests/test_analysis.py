"""Unit tests for the experiment harness and table rendering."""

import pytest

from repro.analysis.experiments import (
    ExperimentRow,
    experiment_config,
    run_schemes,
    summarize,
)
from repro.analysis.tables import format_series, format_table
from repro.sim.results import SimResult


def result(workload, scheme, cycles, accesses=100):
    return SimResult(
        workload=workload, scheme=scheme, cycles=cycles,
        trace_entries=10, memory_accesses=accesses,
    )


class TestExperimentRow:
    def make_row(self):
        return ExperimentRow(
            workload="w",
            baseline="oram",
            results={
                "oram": result("w", "oram", 1200, accesses=100),
                "dyn": result("w", "dyn", 1000, accesses=80),
            },
        )

    def test_speedup(self):
        assert self.make_row().speedup("dyn") == pytest.approx(0.2)
        assert self.make_row().speedup("oram") == 0.0

    def test_normalized_accesses(self):
        assert self.make_row().normalized_accesses("dyn") == pytest.approx(0.8)

    def test_normalized_time(self):
        assert self.make_row().normalized_time("dyn") == pytest.approx(1000 / 1200)


class TestSummarize:
    def rows(self):
        def row(name, dyn_cycles):
            return ExperimentRow(
                workload=name,
                baseline="oram",
                results={
                    "oram": result(name, "oram", 1000),
                    "dyn": result(name, "dyn", dyn_cycles),
                },
            )

        return [row("a", 800), row("b", 1000), row("c", 500)]

    def test_average_over_all(self):
        avg = summarize(self.rows(), "dyn")
        assert avg == pytest.approx((0.25 + 0.0 + 1.0) / 3)

    def test_average_over_subset(self):
        avg = summarize(self.rows(), "dyn", workloads=["a", "c"])
        assert avg == pytest.approx((0.25 + 1.0) / 2)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            summarize(self.rows(), "dyn", workloads=["nope"])


class TestExperimentConfig:
    def test_defaults(self):
        cfg = experiment_config()
        assert cfg.oram.bucket_size == 4
        assert cfg.oram.utilization == 0.65

    def test_overrides(self):
        cfg = experiment_config(bucket_size=3, stash_blocks=200)
        assert cfg.oram.bucket_size == 3
        assert cfg.oram.stash_blocks == 200


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "x"], [["a", 1], ["bb", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # rectangular

    def test_format_table_float_rendering(self):
        text = format_table(["v"], [[0.123456]])
        assert "+0.123" in text

    def test_format_series(self):
        text = format_series("Title", [1, 2], {"a": [0.1, 0.2], "b": [0.3, 0.4]})
        assert text.startswith("Title")
        assert "a" in text and "b" in text


class TestRunSchemesPolicyFactory:
    def test_fresh_policy_per_dynamic_run(self):
        from repro.core.thresholds import AdaptiveThresholdPolicy
        from repro.sim.trace import Trace
        from repro.config import CacheConfig, ORAMConfig, SystemConfig

        created = []

        def factory():
            policy = AdaptiveThresholdPolicy()
            created.append(policy)
            return policy

        trace = Trace("t", footprint_blocks=64)
        for i in range(200):
            trace.append(1, i % 64)
        config = SystemConfig(
            oram=ORAMConfig(levels=6, bucket_size=4, stash_blocks=40),
            l1=CacheConfig(capacity_bytes=4 * 1024, associativity=4),
            llc=CacheConfig(capacity_bytes=8 * 1024, associativity=8),
        )
        run_schemes(trace, ["dyn", "dyn_am_nb"], config=config, policy_factory=factory)
        assert len(created) == 2
