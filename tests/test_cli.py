"""Unit tests for the command-line interface."""

import argparse
import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main, make_parser
from repro.sim.system import SchemeLabel, SecureSystem
from repro.workloads import named_trace as build_trace


class TestBuildTrace:
    """The one name -> trace lookup (``repro.workloads.named_trace``) as the
    CLI reaches it."""

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
        with pytest.raises(KeyError):
            build_trace("nonexistent", accesses=10)
        with pytest.raises(SystemExit, match="unknown workload 'nonexistent'"):
            main(["trace", "-w", "nonexistent", "--accesses", "10", "-o", "unused"])

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

    def test_known_schemes_all_buildable(self, capsys):
        # Every label of the grammar `repro list` prints is one the factory
        # builds: each base, bare and under every suffix combination.
        from repro.analysis.experiments import experiment_config

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert SchemeLabel.GRAMMAR in out
        suffixes = ["", "_pre"]
        for base in SchemeLabel.BASES:
            assert base in out
            for suffix in suffixes:
                for periodic in ("", "_intvl") if base != "dram" else ("",):
                    label = SchemeLabel.parse(base + suffix + periodic)
                    assert (label.base, label.prefetcher) == (base, bool(suffix))
                    assert label.periodic == bool(periodic)
                    SecureSystem.build(
                        base + suffix + periodic,
                        footprint_blocks=256,
                        config=experiment_config(),
                    )


class TestAuditVerdict:
    """``repro audit`` is the one obliviousness verdict: a leak confined to
    some windows dilutes into a healthy whole run (p = 0.8733 and lag-1
    +0.0401 below), so only the windowed monitor catches it."""

    ARGV = "audit -w YCSB -s oram --accesses 12000 --window 512".split()

    def test_planted_address_leak_is_flagged_by_the_windows(
        self, monkeypatch, capsys
    ):
        from repro.oram.position_map import PositionMap

        remap = PositionMap.remap

        def leaky_remap(self, addrs, leaf=None):
            addrs = list(addrs)
            if leaf is None:  # the default draw becomes leaf = f(addr)
                leaf = (7 * addrs[0]) % self.num_leaves
            return remap(self, addrs, leaf)

        monkeypatch.setattr(PositionMap, "remap", leaky_remap)
        assert main(self.ARGV) == 1
        out = capsys.readouterr().out
        assert "uniformity chi^2 p-value: 0.8733" in out
        assert "FLAGGED" in out
        assert "verdict: SUSPECT" in out

    def test_unpatched_run_is_oblivious(self, capsys):
        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "status: healthy" in out
        assert "verdict: OBLIVIOUS" in out


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


class TestSchemeLabels:
    """One parser reads ``--scheme(s)`` for every subcommand; each case
    failed at the parent (refused, or died with a ``ValueError`` traceback)."""

    @pytest.mark.parametrize(
        "scheme", ["dyn_pre", "oram_pre", "dyn_strided", "oram_pre_intvl"]
    )
    def test_run_and_audit_take_every_buildable_label(self, scheme, capsys):
        sized = ["-w", "locality:80", "-s", scheme, "--accesses", "1200"]
        assert main(["run", *sized, "--warmup", "0"]) == 0
        assert scheme in capsys.readouterr().out
        assert main(["audit", *sized, "--window", "256"]) == 0
        assert "verdict: OBLIVIOUS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("audit -w locality:50 -s nonsense --accesses 100", "unknown scheme 'nonsense'"),
            ("chaos -s dram --ops 100", "cannot run on a sharded bank"),
            ("chaos -s dyn_pre --ops 100", "cannot run on a sharded bank"),
            ("audit -w locality:50 -s dram --accesses 100", "audit needs an ORAM scheme"),
            ("audit -s dram_pre -w locality:50 --accesses 100", "audit needs an ORAM scheme"),
            ("run -w locality:50 -s dyn,dram_intvl --accesses 100", "only apply to ORAM"),
            ("serve -s stat_intvl", "cannot run on a sharded bank"),
            ("parallel -s oram_pre", "cannot run on a sharded bank"),
            ("run -s dyn_spre -w locality:50 --accesses 100", "unknown scheme 'dyn_spre'"),
            ("run -s dyn_sm_ab -w locality:50 --accesses 100", "unknown scheme 'dyn_sm_ab'"),
        ],
    )
    def test_unrunnable_label_exits_2_with_one_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_parse_rejects_what_is_not_in_the_grammar(self):
        for label in ("", "dyn_", "pre", "dyn_intvl_pre", "dyn_pre_pre", "DYN"):
            with pytest.raises(ValueError):
                SchemeLabel.parse(label)
        assert SchemeLabel.parse("dyn_sm_nb_pre_intvl") == SchemeLabel(
            "dyn_sm_nb", True, True
        )
        assert SchemeLabel.parse("dram_pre").is_dram
        assert SchemeLabel.parse("stat").is_base_oram
        assert not SchemeLabel.parse("stat_pre").is_base_oram

    def test_every_base_and_suffix_has_a_benchmark(self):
        """A label no figure builds cannot be added silently: each base and
        each suffix of the grammar is in some ``benchmarks/**/*.py`` label."""
        bases, suffixes = set(), set()
        for path in sorted((REPO / "benchmarks").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                    continue
                try:
                    label = SchemeLabel.parse(node.value)
                except ValueError:
                    continue
                bases.add(label.base)
                suffixes.update(re.findall(r"_[a-z]+", node.value[len(label.base):]))
        grammar_suffixes = set(re.findall(r"_[a-z]+", SchemeLabel.GRAMMAR))
        assert (set(SchemeLabel.BASES) - bases, grammar_suffixes - suffixes) == (set(), set())


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
        "serve -s dyn --shards 2 --tenants 2 --requests 60 --health-policy window=32",
        "2-shard 'dyn' bank",
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

    @pytest.mark.parametrize(
        "command, line",
        [
            (
                "parallel -w locality:80 -s dyn --parallel-workers 2 --accesses 1000",
                "bit-identical to serial",
            ),
            ("chaos --ops 1500 --shards 2 --layers parallel", "verdict: PASS"),
        ],
        ids=["parallel", "chaos"],
    )
    def test_latency_trip_runs_on_the_workers(self, command, line, capsys):
        """Each worker feeds its own breaker the simulated latency a bank
        channel feeds, so a latency trip is a policy like any other (it was
        refused with exit 2 while the runtime fed its breakers per batch
        acknowledgement, with no latency)."""
        policy = (
            "degrade_latency_cycles=1400,window=32,quarantine_cooldown=16,"
            "probe_batch=8,probe_successes=2,heartbeat_every=8,"
            "batch_deadline_s=1.5,join_timeout_s=2"
        )
        assert main(f"{command} --health-policy {policy}".split()) == 0
        assert line in capsys.readouterr().out


class TestMemoryOptions:
    @pytest.mark.parametrize(
        "flags, message",
        [
            # was accepted, and silently ran flat on one channel
            ("--dram-model flat --channels 4", "--channels 4 needs --dram-model channel"),
            ("--channels 0", "--channels must be at least 1"),
        ],
    )
    def test_contradictory_channel_flags_exit_2_with_one_line(
        self, flags, message, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main((RUN + flags).split())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and message in err
        assert len(err.strip().splitlines()) == 1

    def test_flat_with_one_channel_is_still_the_default_model(self, capsys):
        assert main((RUN + "--dram-model flat --channels 1").split()) == 0
        assert "channel interconnect" not in capsys.readouterr().out

    def test_channel_table_reports_the_stream_efficiency(self, capsys):
        assert main((RUN + "--channels 4").split()) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if "stream_eff" in line)
        assert header.split()[-3:] == ["T", "mean_stream_cyc", "stream_eff"]


# ---------------------------------------------------------- option contract
REPO = Path(__file__).resolve().parents[1]
OPTION_TABLE = REPO / "tests" / "data" / "cli_options.json"


def describe_parser(parser):
    """Every action of every subcommand, as plain data.

    ``tests/data/cli_options.json`` is this function applied to
    ``make_parser()`` before the CLI declared each flag once; it is frozen
    (re-record with ``json.dump(describe_parser(make_parser()), fh,
    indent=1, sort_keys=True)`` only for a deliberate option change).
    """
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    table = {}
    for command, sub in subparsers.choices.items():
        actions = []
        for action in sub._actions:
            actions.append(
                {
                    "options": list(action.option_strings),
                    "dest": action.dest,
                    "default": action.default,
                    "type": getattr(action.type, "__name__", None),
                    "choices": list(action.choices) if action.choices else None,
                    "metavar": action.metavar,
                    "required": action.required,
                    "action": type(action).__name__,
                }
            )
        defaults = {k: v for k, v in sub._defaults.items() if k != "func"}
        table[command] = {"actions": actions, "set_defaults": defaults}
    return table


def documented_invocations():
    """Every ``-m repro ...`` line of the README, the tutorial and the
    Makefile, as an argv (a trailing ``# comment`` dropped)."""
    lines = []
    for name in ("README.md", "docs/tutorial.md", "Makefile"):
        for line in (REPO / name).read_text().splitlines():
            if "-m repro " in line:
                command = line.split("-m repro ", 1)[1].split(" #", 1)[0]
                lines.append(shlex.split(command))
    return lines


class TestOptionContract:
    def test_parser_matches_the_recorded_option_table(self):
        recorded = json.loads(OPTION_TABLE.read_text())
        assert describe_parser(make_parser()) == recorded

    @pytest.mark.parametrize(
        "argv", documented_invocations(), ids=" ".join
    )
    def test_documented_invocation_parses(self, argv):
        args = make_parser().parse_args(argv)
        assert args.command == argv[0]


class TestOneErrorConvention:
    """Each of these exited 1 with a bare message; a bad option value now
    exits 2 with one ``repro:`` line, like an unrunnable scheme label."""

    @pytest.mark.parametrize(
        "argv",
        [
            "run -w nonexistent --accesses 100",
            "run -w locality:80 -s dyn --treetop 99 --accesses 100",
            "serve -s dyn --tenants 3 --weights 1,2",
            "serve -s dyn --deadline 0",
            "parity --scheme nope",
            "parity --scheme path --levels 2 --blocks 1000",
            "parity --levels 0",
            "parity --blocks 0",
            "parity --scheme ring --levels 2 --blocks 1000",
            "parity --scheme tree --levels 2 --blocks 1000",
            "chaos --ops -5",
            "run -w locality:80 -s dyn --shards 2 --health-policy bogus=1 --accesses 100",
            # "0 disables" knobs took a negative value silently
            "run -w locality:80 -s dyn --shards 2 --health-policy degrade_latency_cycles=-5 --accesses 100",
            "parallel -w locality:80 -s dyn --parallel-workers 2 --health-policy heartbeat_every=-3 --accesses 100",
            "trace -w locality:30 --accesses 100",
            # a library ValueError (a traceback before) reaches the same path
            "run -w locality:80 -s dyn --accesses 100 --fault-transient 2",
            # every access would retry in place forever (this never ended)
            "run -w locality:80 -s dyn --accesses 200 --fault-transient 1.0",
            "serve -s dyn --batch 0",
            "serve -s dyn --requests 0",
            "serve -s dyn --tenants 2 --weights 1,x",
            "chaos --shards 1 --ops 10",
            "chaos --layers bogus",
            "audit -w locality:50 --accesses 100 --window 0",
            # each of these printed a traceback and exited 1 ...
            "serve -s dyn --shards 0 --requests 20",
            "parallel -w locality:80 -s dyn --parallel-workers 0 --accesses 100",
            "parallel -w locality:80 -s dyn --batch 0 --accesses 100",
            "run -w locality:80 -s dyn --shards 0 --accesses 100",
            "run -w locality:80 -s dyn --warmup 1.5 --accesses 100",
            "run -w locality:80 -s dyn --accesses 0",
            "sweep z -w ocean_c -s dyn --accesses 0",
            "run -w locality:150 -s dyn --accesses 100",
            "trace -w locality:150 --accesses 100 -o /dev/null",
            # ... and each of these ran, meaning something else
            "serve -s dyn --gap -5 --requests 20",
            "serve -s dyn --mode closed --think -1 --requests 20",
            "serve -s dyn --write-frac 2 --requests 20",
            "parallel -w locality:80 -s dyn --checkpoint-every -1 --accesses 100",
            "parity --accesses -1",
            # a bank runs no periodic grid (this raised inside the run)
            "run -w locality:80 -s dyn_intvl --shards 2 --accesses 100",
            "run -w locality:80 -s dyn_intvl --health-policy window=32 --accesses 100",
        ],
    )
    def test_bad_value_exits_2_with_one_repro_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("bank", ["--shards 2", "--health-policy window=32"])
    def test_periodic_on_a_bank_is_refused_before_the_trace(
        self, bank, monkeypatch, capsys
    ):
        def no_trace(*args, **kwargs):
            raise AssertionError("the trace was built")

        monkeypatch.setattr("repro.cli.named_trace", no_trace)
        with pytest.raises(SystemExit) as exit_info:
            main(f"run -w locality:80 -s oram,dyn_intvl {bank}".split())
        assert exit_info.value.code == 2
        assert "'dyn_intvl'" in capsys.readouterr().err


class TestSweepSeed:
    """Regression: ``sweep locality`` built its traces without ``--seed``."""

    ARGV = "sweep locality -s stat --accesses 800 --warmup 0".split()

    def table(self, capsys, *flags):
        assert main(self.ARGV + list(flags)) == 0
        return capsys.readouterr().out

    def test_seed_reaches_the_locality_traces(self, capsys):
        from repro.analysis.experiments import experiment_config, run_schemes
        from repro.analysis.tables import format_table
        from repro.workloads import locality_mix_trace

        rows = []
        for pct in (0, 20, 40, 60, 80, 100):
            trace = locality_mix_trace(pct / 100.0, accesses=800)
            res = run_schemes(trace, ["oram", "stat"], config=experiment_config())
            rows.append([f"{pct}%", res["stat"].speedup_over(res["oram"])])
        unseeded = format_table(["locality", "stat"], rows) + "\n"
        assert self.table(capsys) == unseeded
        assert self.table(capsys, "--seed", "3") != self.table(capsys, "--seed", "7")
        assert self.table(capsys, "--seed", "3") != unseeded
