"""Tests for the cross-layer chaos harness (``repro.faults.chaos``).

The full soak is ``repro chaos --ops N`` at any size; here the scenario
grammar, event scaling, determinism, and each layer's gates are pinned
on storms small enough for the unit suite.  The parallel layer -- the
slow one, since it spawns real processes and rides a wall-clock
deadline -- runs once as a single compact storm.
"""

import json

import pytest

from repro.faults.chaos import (
    ChaosEvent,
    ChaosReport,
    ChaosScenario,
    chaos_policy,
    default_storm,
    run_bank_storm,
    run_chaos,
    run_kv_storm,
)

SMALL = ChaosScenario(
    num_shards=2,
    footprint_blocks=128,
    parallel_ops=600,
    kv_ops=400,
    bank_ops=1200,
)


# --------------------------------------------------------------- grammar
class TestScenarioGrammar:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosEvent(10, "explode", 0)
        with pytest.raises(ValueError):
            ChaosEvent(-1, "kill", 0)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="two shards"):
            ChaosScenario(num_shards=1)
        with pytest.raises(ValueError):
            ChaosScenario(kv_ops=-1)

    def test_default_storm_composes_kill_and_hang(self):
        events = default_storm(8000, 4)
        assert [event.action for event in events] == ["kill", "hang", "kill"]
        assert [event.shard for event in events] == [0, 1, 2]
        assert all(0 <= event.at_op < 8000 for event in events)

    def test_storm_events_scale_to_stream(self):
        scenario = ChaosScenario(num_shards=2, parallel_ops=8000)
        scaled = scenario.storm_events(800)
        assert [event.at_op for event in scaled] == [200, 400, 500]
        # shards wrap onto the scenario width
        assert all(event.shard < 2 for event in scaled)
        assert scenario.storm_events(0) == ()

    def test_requests_are_seed_deterministic(self):
        scenario = ChaosScenario(num_shards=2, seed=7)
        assert scenario.requests(100, salt=1) == scenario.requests(100, salt=1)
        assert scenario.requests(100, salt=1) != scenario.requests(100, salt=2)
        assert scenario.requests(100, salt=1) != ChaosScenario(
            num_shards=2, seed=8
        ).requests(100, salt=1)

    def test_total_ops(self):
        assert SMALL.total_ops == 600 + 400 + 1200

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos layers"):
            run_chaos(SMALL, layers=("kv", "cache"))


# ---------------------------------------------------------------- layers
class TestKvStorm:
    def test_zero_lost_under_all_fault_classes(self):
        result = run_kv_storm(SMALL)
        assert result["ops"] == SMALL.kv_ops
        assert result["faults_injected"] > 0
        assert result["mismatches"] == 0
        assert result["fsck_clean"]
        assert result["zero_lost"]

    def test_kv_storm_deterministic(self):
        first, second = run_kv_storm(SMALL), run_kv_storm(SMALL)
        first.pop("elapsed_s"), second.pop("elapsed_s")
        assert first == second


class TestBankStorm:
    def test_quarantine_readmit_and_uniformity(self):
        result = run_bank_storm(SMALL, chaos_policy())
        assert result["ops"] == SMALL.bank_ops
        assert result["quarantines"] >= len(SMALL.storm_events(SMALL.bank_ops))
        assert result["all_readmitted"]
        assert result["leaf_uniform"]
        assert result["uniformity_windows"] > 0

    def test_bank_storm_deterministic(self):
        policy = chaos_policy()
        first = run_bank_storm(SMALL, policy)
        second = run_bank_storm(SMALL, policy)
        first.pop("elapsed_s", None), second.pop("elapsed_s", None)
        assert first == second


class TestParallelStorm:
    def test_composed_storm_passes_all_gates(self, tmp_path):
        report = run_chaos(SMALL, chaos_policy(), layers=("parallel",))
        parallel = report.parallel
        assert parallel["conserved"]
        assert parallel["ops"] == SMALL.parallel_ops
        assert parallel["hangs"] >= 1
        assert parallel["quarantines"] >= 3
        assert parallel["all_readmitted"]
        assert parallel["hangs_detected"]
        assert parallel["recovery_bounded"]
        assert report.ok


# ---------------------------------------------------------------- report
class TestChaosReport:
    def test_gates_default_pass_for_skipped_layers(self):
        report = ChaosReport(SMALL)
        assert report.zero_lost and report.all_readmitted
        assert report.leaf_uniform and report.hangs_detected
        assert report.ok

    def test_failed_gate_fails_verdict(self):
        report = ChaosReport(SMALL)
        report.kv = {"zero_lost": False}
        assert not report.zero_lost
        assert not report.ok

    def test_as_dict_round_trips_through_json(self):
        report = ChaosReport(SMALL)
        report.bank = {"leaf_uniform": True, "all_readmitted": True}
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["pass"] is True
        assert payload["gates"]["leaf_uniform"] is True
        assert payload["scenario"]["num_shards"] == 2

    def test_render_names_every_gate(self):
        report = run_chaos(SMALL, chaos_policy(), layers=("kv",))
        text = report.render()
        for token in ("zero_lost", "all_readmitted", "leaf_uniform",
                      "hang_detection", "verdict"):
            assert token in text

    def test_header_counts_the_layers_that_ran(self):
        """``--layers kv`` used to print the whole scenario's op count."""
        header = run_chaos(SMALL, chaos_policy(), layers=("kv",)).render().splitlines()[0]
        assert "400 ops run" in header
        assert "2200-op scenario splits 600/400/1200 over parallel/kv/bank" in header
