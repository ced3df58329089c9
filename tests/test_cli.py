"""Unit tests for the command-line interface."""

import pytest

from repro.cli import KNOWN_SCHEMES, build_trace, main


class TestBuildTrace:
    def test_splash2_workload(self):
        trace = build_trace("ocean_c", accesses=500)
        assert trace.name == "ocean_c"
        assert len(trace) == 500

    def test_spec06_workload(self):
        assert build_trace("mcf", accesses=300).name == "mcf"

    def test_dbms_workload(self):
        assert build_trace("YCSB", accesses=800).name == "YCSB"

    def test_synthetic_locality(self):
        trace = build_trace("locality:75", accesses=400)
        assert trace.name == "locality_75"

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_trace("nonexistent", accesses=10)

    @pytest.mark.parametrize("workload", ["ocean_c", "YCSB", "locality:60"])
    def test_seed_reaches_the_generator(self, workload):
        """Regression: ``seed`` was accepted and dropped, so ``--seed`` was
        a dead flag on every subcommand that takes a workload."""
        default = build_trace(workload, accesses=300).entries
        assert build_trace(workload, accesses=300, seed=7).entries != default
        assert (
            build_trace(workload, accesses=300, seed=7).entries
            == build_trace(workload, accesses=300, seed=7).entries
        )
        assert build_trace(workload, accesses=300, seed=None).entries == default

    def test_seed_flag_changes_exported_trace(self, tmp_path):
        from repro.sim.trace import Trace

        def export(name, *flags):
            path = tmp_path / name
            argv = ["trace", "-w", "locality:60", "--accesses", "200", "-o", str(path)]
            assert main(argv + list(flags)) == 0
            return Trace.load(str(path)).entries

        unseeded = export("a.trace")
        assert unseeded == build_trace("locality:60", accesses=200).entries
        assert export("b.trace", "--seed", "7") != unseeded
        assert export("c.trace", "--seed", "7") == export("d.trace", "--seed", "7")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ocean_c" in out and "dyn" in out and "YCSB" in out

    def test_run_small(self, capsys):
        code = main(
            ["run", "-w", "locality:50", "-s", "oram,dyn",
             "--accesses", "1500", "--warmup", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup_vs_oram" in out
        assert "dyn" in out

    def test_run_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["run", "-w", "locality:50", "-s", "bogus", "--accesses", "100"])

    def test_trace_export(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        assert main(
            ["trace", "-w", "locality:30", "--accesses", "200", "-o", str(out_file)]
        ) == 0
        from repro.sim.trace import Trace

        loaded = Trace.load(str(out_file))
        assert len(loaded) == 200

    def test_audit_reports_oblivious(self, capsys):
        code = main(
            ["audit", "-w", "locality:50", "-s", "dyn", "--accesses", "3000"]
        )
        out = capsys.readouterr().out
        assert "verdict" in out
        assert code == 0  # healthy ORAM passes the audit

    def test_audit_of_a_run_too_short_to_test_exits_2(self, capsys):
        """Regression: ``lag_autocorrelation`` raised ``ValueError`` (a
        traceback) on <= 2 path accesses."""
        code = main(["audit", "-w", "locality:50", "-s", "dyn", "--accesses", "2"])
        assert code == 2
        out = capsys.readouterr().out
        assert "too few path accesses to audit" in out
        assert "verdict" not in out

    def test_sweep_z(self, capsys):
        code = main(
            ["sweep", "z", "-w", "locality:60", "-s", "dyn", "--accesses", "1200",
             "--warmup", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Z" in out

    def test_known_schemes_all_buildable(self):
        # The CLI's advertised scheme list matches what the factory accepts.
        from repro.analysis.experiments import experiment_config
        from repro.sim.system import SecureSystem

        for scheme in KNOWN_SCHEMES:
            SecureSystem.build(scheme, footprint_blocks=256, config=experiment_config())


class TestObservabilityCommands:
    def test_run_trace_out_single_scheme(self, tmp_path, capsys):
        out_file = tmp_path / "spans.jsonl"
        code = main(
            ["run", "-w", "locality:50", "-s", "dyn", "--accesses", "1000",
             "--warmup", "0.2", "--trace-out", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "spans" in out
        from repro.observability import is_span, read_jsonl_trace

        records = read_jsonl_trace(str(out_file))
        assert records[0]["event"] == "run_start"
        assert any(is_span(record) for record in records)

    def test_run_trace_out_multi_scheme_splits_files(self, tmp_path):
        out_file = tmp_path / "spans.jsonl"
        code = main(
            ["run", "-w", "locality:50", "-s", "oram,dyn", "--accesses", "800",
             "--warmup", "0.2", "--trace-out", str(out_file)]
        )
        assert code == 0
        assert (tmp_path / "spans.oram.jsonl").exists()
        assert (tmp_path / "spans.dyn.jsonl").exists()

    def test_trace_report_mode(self, tmp_path, capsys):
        out_file = tmp_path / "spans.jsonl"
        main(
            ["run", "-w", "locality:50", "-s", "dyn", "--accesses", "800",
             "--warmup", "0.2", "--trace-out", str(out_file)]
        )
        capsys.readouterr()
        assert main(["trace", "--report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "trace.spans.demand" in out
        assert "trace.latency.demand" in out

    def test_trace_requires_output_or_report(self):
        with pytest.raises(SystemExit):
            main(["trace", "-w", "locality:30", "--accesses", "100"])

    def test_metrics_command(self, capsys):
        code = main(
            ["metrics", "-w", "locality:50", "-s", "dyn", "--accesses", "1500",
             "--window", "512"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend.demand_requests" in out
        assert "leaf uniformity" in out
        assert "status: healthy" in out

    def test_metrics_rejects_dram(self):
        with pytest.raises(SystemExit):
            main(["metrics", "-w", "locality:50", "-s", "dram", "--accesses", "100"])


RUN = "run -w locality:80 -s dyn --accesses 1500 --warmup 0 "

#: one tiny in-process run per feature command line, and the output line
#: that shows the flags reached their layer (the verdict, where there is one)
FEATURE_SMOKES = [
    (RUN + "--shards 4", "4-shard ORAM bank"),
    (RUN + "--dram-model channel --channels 4 --treetop 4", "channel interconnect (4 channels)"),
    (RUN + "--channels 2 --shards 2", "2-shard ORAM bank, 2-channel DRAM"),
    (RUN + "--treetop 6 --shards 2", "2-shard ORAM bank"),
    (RUN + "--fault-transient 0.02 --fault-delay 0.02", "fault injection (seed 1)"),
    (RUN + "--shards 4 --health-policy window=32", "4-shard ORAM bank"),
    ("parity --scheme all --accesses 300", "clean"),
    (
        "parallel -w locality:80 -s dyn --parallel-workers 2 --accesses 1000 --fsck",
        "bit-identical to serial",
    ),
    ("serve -s dyn --shards 4 --tenants 4 --requests 60 --metrics", "serve.tenant3.queue_peak"),
    (
        "serve -s dyn --mode closed --shards 2 --tenants 2 --clients 3 --requests 20",
        "closed loop, 3 clients/tenant",
    ),
    (
        "serve -s dyn --shards 2 --tenants 2 --requests 60 --parallel-check",
        "replay bit-identically",
    ),
    ("chaos --ops 1500 --shards 2 --layers kv,bank", "verdict: PASS"),
]


class TestFeatureCommands:
    @pytest.mark.parametrize(
        "argv, line", FEATURE_SMOKES, ids=[argv for argv, _ in FEATURE_SMOKES]
    )
    def test_exits_zero_and_prints_its_line(self, argv, line, capsys):
        assert main(argv.split()) == 0
        assert line in capsys.readouterr().out
