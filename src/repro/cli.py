"""Command-line interface: run simulations and experiments without pytest.

Usage (also via ``python -m repro``):

    repro list                               # workloads and schemes
    repro run -w ocean_c -s oram,stat,dyn    # one Figure 8 bar
    repro run -w YCSB -s dyn --accesses 40000
    repro sweep locality -s stat,dyn         # Figure 6a
    repro sweep stash -w ocean_c             # Figure 12
    repro run -w ocean_c -s dyn --shards 4   # channel-interleaved ORAM bank
    repro run -w mcf -s dyn --trace-out mcf.jsonl   # per-access span trace
    repro trace -w mcf -o mcf.trace          # export a trace file
    repro trace --report mcf.jsonl           # summarize a span trace
    repro audit -w ocean_c                   # the obliviousness verdict
    repro parity --scheme all                # one trace, every ORAMScheme

Every command prints the same tables the benchmark harness records; the
heavy lifting lives in :mod:`repro.analysis`.  A flag that sets a library
parameter takes that parameter's default by reference, and every option
value a command cannot run ends in :func:`usage_error`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time
from dataclasses import replace
from typing import List, NoReturn, Optional

from repro.analysis.experiments import experiment_config, run_schemes
from repro.analysis.tables import format_table
from repro.config import ServeConfig
from repro.controller.scheme import SCHEME_FACTORIES, build_scheme
from repro.faults import FaultConfig, FaultInjector
from repro.faults.chaos import ChaosScenario, chaos_policy, check_chaos_layers, run_chaos
from repro.faults.fsck import run_fsck
from repro.faults.resilient import refuse_endless_retries
from repro.health import HealthPolicy
from repro.observability import (
    InMemoryRecorder,
    JsonlTraceRecorder,
    LeafUniformityMonitor,
    collect_serve,
    collect_trace,
    read_jsonl_trace,
    render_profile,
    time_system,
)
from repro.parallel import ParallelShardRuntime, run_serial_reference
from repro.parallel.merge import requests_from_trace
from repro.security.observer import AccessObserver
from repro.security.statistics import chi_square_uniformity, lag_autocorrelation
from repro.serve import ClosedLoopSource, OpenLoopSource, ServingFrontEnd
from repro.serve.loadgen import DEFAULT_DEADLINE
from repro.sim.system import SchemeLabel, SecureSystem
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng
from repro.workloads import SUITES, named_trace


def usage_error(message) -> NoReturn:
    """An option value this command cannot run: one line, exit 2.

    The raised ``SystemExit`` carries ``message`` (``str(exc)``) and
    exit code 2.
    """
    print(f"repro: {message}", file=sys.stderr)
    exc = SystemExit(message)
    exc.code = 2
    raise exc


def from_options(build, *args, **kwargs):
    """``build(*args, **kwargs)`` on option values: the ``ValueError`` a
    library parser or config raises for a bad value is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        usage_error(error)


def scheme_label(scheme: str) -> SchemeLabel:
    """Parse one ``--scheme(s)`` label (the grammar ``repro list`` prints)."""
    return from_options(SchemeLabel.parse, scheme)


def _parse_schemes(raw: str) -> List[str]:
    schemes = [s.strip() for s in raw.split(",") if s.strip()]
    for scheme in schemes:
        scheme_label(scheme)
    return schemes


# ------------------------------------------------------------- option groups
# Each flag is declared once (``add_*``) and read once (the function below
# it); a subcommand attaches exactly the flags it reads, passing its own
# default where commands differ.
def add_seed_option(parser, default: Optional[int], help: Optional[str] = None):
    parser.add_argument("--seed", type=int, default=default, help=help)


def add_shards_option(parser, default: int, help: Optional[str] = None):
    parser.add_argument("--shards", type=int, default=default, metavar="N", help=help)


def shard_count(args) -> int:
    if args.shards < 1:
        usage_error("--shards must be at least 1")
    return args.shards


def add_workload_options(parser, *, required: bool = True, accesses: int = 60_000):
    parser.add_argument("-w", "--workload", required=required, default="ocean_c")
    parser.add_argument("--accesses", type=int, default=accesses)
    parser.add_argument("--warmup", type=float, default=0.5)
    add_seed_option(
        parser, None, help="trace-generator seed (default: the generator's own)"
    )


def workload_trace(args, name: Optional[str] = None) -> Trace:
    """The ``name`` (default ``--workload``) trace at ``--accesses``/``--seed``."""
    name = name or args.workload
    if args.accesses < 1:
        usage_error("--accesses must be at least 1")
    try:
        return named_trace(name, args.accesses, seed=args.seed)
    except KeyError:
        usage_error(f"unknown workload '{name}' (see `repro list`)")
    except ValueError as error:  # a parameter out of range (locality:150)
        usage_error(f"workload '{name}': {error}")


def warmup_fraction(args) -> float:
    """``--warmup``: the leading share of the trace that is not measured."""
    if not 0.0 <= args.warmup < 1.0:
        usage_error(f"--warmup must be in [0, 1), not {args.warmup:g}")
    return args.warmup


def add_memory_options(parser, *, interconnect: bool = True):
    if interconnect:
        parser.add_argument(
            "--dram-model",
            choices=["flat", "channel"],
            help="memory interconnect of every ORAM controller: 'flat' (the "
            "paper's scalar path cost, default) or 'channel' (stream each "
            "path's buckets over channel/bank-aware DRAM)",
        )
        parser.add_argument(
            "--channels",
            type=int,
            metavar="N",
            help="DRAM channels for the channel interconnect (implies "
            "--dram-model channel; bandwidth_gbps is per channel)",
        )
    else:
        parser.set_defaults(dram_model=None, channels=None)
    parser.add_argument(
        "--treetop",
        type=int,
        metavar="K",
        help="pin the top K levels of the nominal ORAM tree in on-chip "
        "SRAM (in every shard of a bank); every path access streams only "
        "the bottom levels (DESIGN.md §13)",
    )


def memory_config(args):
    """The experiment config with the memory options applied."""
    config = experiment_config()
    if args.treetop is not None:
        try:
            config = replace(
                config, oram=replace(config.oram, treetop_levels=args.treetop)
            )
        except ValueError as exc:
            usage_error(f"--treetop: {exc}")
    model, channels = args.dram_model, args.channels
    if model is None and channels is None:
        return config
    if model is None:
        model = "channel"  # --channels alone selects the channel model
    if channels is None:
        channels = 4 if model == "channel" else 1
    if channels < 1:
        usage_error("--channels must be at least 1")
    if model == "flat" and channels > 1:
        usage_error(
            f"--dram-model flat is the one-channel model; --channels {channels} "
            "needs --dram-model channel"
        )
    return replace(
        config, dram=replace(config.dram, model=model, num_channels=channels)
    )


def channel_banner(config) -> str:
    """The banner suffix naming a channel-model DRAM (empty when flat)."""
    if config.dram.model != "channel":
        return ""
    return f", {config.dram.num_channels}-channel DRAM"


def add_health_option(parser, help: str):
    parser.add_argument(
        "--health-policy", metavar="KEY=VAL[,...]", help=help
    )


def health_policy(args) -> Optional[HealthPolicy]:
    if not args.health_policy:
        return None
    return from_options(HealthPolicy.parse, args.health_policy)


def add_scheme_option(parser):
    parser.add_argument("-s", "--scheme", default="dyn")


def oram_scheme(args, command: str) -> str:
    """``--scheme`` for commands that observe an ORAM (any suffix)."""
    if scheme_label(args.scheme).is_dram:
        usage_error(f"{command} needs an ORAM scheme, not '{args.scheme}'")
    return args.scheme


def bank_scheme(args) -> str:
    """``--scheme`` for commands that build a sharded bank themselves."""
    if not scheme_label(args.scheme).is_base_oram:
        usage_error(
            f"scheme '{args.scheme}' cannot run on a sharded bank "
            "(base ORAM schemes only; no prefetch/periodic suffixes)"
        )
    return args.scheme


def fault_config(args) -> Optional[FaultConfig]:
    """The ``--fault-*`` flags as one config; None when injection is off.

    A config the timing backends refuse (``--fault-transient 1``: every
    access would retry forever) is a usage error before anything is built.
    """
    if not args.fault_transient and not args.fault_delay:
        return None
    config = from_options(
        FaultConfig,
        seed=args.fault_seed,
        transient_rate=args.fault_transient,
        delay_rate=args.fault_delay,
        delay_cycles=args.fault_delay_cycles,
    )
    from_options(refuse_endless_retries, config)
    return config


def scheme_build_kwargs(scheme, faults, shards, policy) -> dict:
    """``SecureSystem.build`` kwargs of one ``repro run`` scheme.

    Each ORAM scheme gets a *fresh* injector (injectors hold a private RNG
    stream), all from one config so schemes see the same fault schedule;
    DRAM baselines get neither faults nor a bank.
    """
    if scheme_label(scheme).is_dram:
        return {}
    injector = FaultInjector(faults) if faults is not None else None
    return dict(fault_injector=injector, num_shards=shards, health_policy=policy)


# ------------------------------------------------------------------ commands
def cmd_list(args) -> int:
    print(f"Schemes: {SchemeLabel.GRAMMAR}")
    print("  base: " + ", ".join(SchemeLabel.BASES))
    print("  _pre: + stream prefetcher")
    print("  _intvl: periodic accesses (ORAM bases only)")
    print("\nWorkloads:")
    for title, profiles in SUITES:
        names = ", ".join(p.name for p in profiles)
        print(f"  {title}: {names}")
    print("  synthetic: locality:<percent>  (e.g. locality:80)")
    return 0


def _trace_out_path(template: str, scheme: str, schemes: List[str]) -> str:
    """Span-trace output path; multi-scheme runs get one file per scheme."""
    if len(schemes) == 1:
        return template
    stem, dot, suffix = template.rpartition(".")
    if not dot:
        return f"{template}.{scheme}"
    return f"{stem}.{scheme}.{suffix}"


def _counter(key):
    """A table cell: the integer ``SimResult.extra[key]`` (0 when absent)."""
    return lambda r: int(r.extra.get(key, 0))


def _mean_streamed_cycles(r) -> str:
    streamed = r.extra["interconnect_streamed_cycles"]
    return "%.1f" % (streamed / max(1, r.extra["interconnect_streamed_paths"]))


#: ``repro run``'s channel-interconnect and fault-injection tables, one
#: (column header, cell of a ``SimResult``) per column
CHANNEL_COLUMNS = [
    ("streamed", _counter("interconnect_streamed_paths")),
    ("untracked", _counter("interconnect_untracked_paths")),
    ("row_hits", _counter("interconnect_row_hits")),
    ("row_misses", _counter("interconnect_row_misses")),
    ("bank_wait_cyc", _counter("interconnect_bank_wait_cycles")),
    ("hidden_lat_cyc", _counter("interconnect_hidden_latency_cycles")),
    ("early_ret_cyc", _counter("interconnect_early_return_cycles")),
    ("T", _counter("interconnect_path_cycles")),
    ("mean_stream_cyc", _mean_streamed_cycles),
    ("stream_eff", lambda r: "%.3f" % r.extra["interconnect_stream_efficiency"]),
]
FAULT_COLUMNS = [
    ("transients", _counter("injected_transients")),
    ("delays", _counter("injected_delays")),
    ("retries", _counter("fault_retries")),
    ("delay_cycles", _counter("fault_delay_cycles")),
    ("forced_evict", _counter("forced_evictions")),
]


def _table(ran, columns) -> str:
    """One row per ``(scheme, SimResult)`` of ``ran``, cells from ``columns``."""
    return format_table(
        ["scheme"] + [header for header, _cell in columns],
        [[scheme] + [cell(r) for _header, cell in columns] for scheme, r in ran],
    )


def cmd_run(args) -> int:
    schemes = _parse_schemes(args.schemes)
    shards = shard_count(args)
    policy = health_policy(args)
    if shards != 1 or policy is not None:
        # Either builds every ORAM scheme as a bank, which runs no
        # periodic grid: refused here, before the trace is made.
        for scheme in schemes:
            if scheme_label(scheme).periodic:
                usage_error(
                    f"scheme '{scheme}': periodic accesses do not run on a "
                    "sharded bank (--shards > 1) or under --health-policy"
                )
    trace = workload_trace(args)
    warmup = warmup_fraction(args)
    config = memory_config(args)
    faults = fault_config(args)
    print(
        f"{trace.name}: {len(trace)} references over {trace.footprint_blocks} "
        f"blocks ({trace.write_fraction:.0%} writes)"
        + (f", {shards}-shard ORAM bank" if shards != 1 else "")
        + channel_banner(config)
    )
    profiles = {}
    recorders = {}

    def system_hook(scheme, system):
        if args.profile:
            profiles[scheme] = (system, time_system(system))
        if args.trace_out and not scheme_label(scheme).is_dram:
            # (DRAM baselines have no pipeline to trace)
            path = _trace_out_path(args.trace_out, scheme, schemes)
            recorders[scheme] = system.attach_recorder(JsonlTraceRecorder(path))

    results = run_schemes(
        trace,
        schemes,
        config=config,
        warmup_fraction=warmup,
        system_hook=system_hook,
        build_kwargs=lambda scheme: scheme_build_kwargs(scheme, faults, shards, policy),
    )
    baseline = results.get("oram") or next(iter(results.values()))
    ran = [(scheme, results[scheme]) for scheme in schemes]
    columns = [
        ("cycles", lambda r: r.cycles),
        ("llc_misses", lambda r: r.llc_misses),
        ("mem_accesses", lambda r: r.total_memory_accesses),
        (f"speedup_vs_{baseline.scheme}", lambda r: r.speedup_over(baseline)),
        ("merges", lambda r: r.merges),
        ("breaks", lambda r: r.breaks),
        ("soft_ovf", _counter("stash_soft_overflows")),
    ]
    print(_table(ran, columns))
    if config.dram.model == "channel":
        print(f"\nchannel interconnect ({config.dram.num_channels} channels):")
        # DRAM baselines have no ORAM interconnect
        oram = [(s, r) for s, r in ran if "interconnect_streamed_paths" in r.extra]
        print(_table(oram, CHANNEL_COLUMNS))
    if faults is not None:
        print("\nfault injection (seed %d):" % args.fault_seed)
        print(_table(ran, FAULT_COLUMNS))
    for system, registry in profiles.values():
        print()
        print(render_profile(system, registry, trace.name))
    for scheme, recorder in recorders.items():
        recorder.close()
        print(
            f"\nwrote {recorder.span_count()} spans "
            f"({len(recorder.records)} records) for {scheme} to {recorder.path}"
        )
    return 0


def cmd_sweep(args) -> int:
    schemes = _parse_schemes(args.schemes)
    warmup = warmup_fraction(args)
    if args.parameter == "locality":
        header, points = "locality", (
            (f"{pct}%", workload_trace(args, f"locality:{pct}"), experiment_config())
            for pct in (0, 20, 40, 60, 80, 100)
        )
    elif args.parameter == "stash":
        trace = workload_trace(args)
        header, points = "stash", (
            (stash, trace, experiment_config(stash_blocks=stash))
            for stash in (25, 50, 100, 200, 400)
        )
    else:
        trace = workload_trace(args)
        header, points = "Z", (
            (z, trace, experiment_config(bucket_size=z)) for z in (3, 4, 5)
        )
    rows = []
    for label, trace, config in points:
        res = run_schemes(
            trace, ["oram"] + schemes, config=config, warmup_fraction=warmup
        )
        rows.append([label] + [res[s].speedup_over(res["oram"]) for s in schemes])
    print(format_table([header] + schemes, rows))
    return 0


def cmd_trace(args) -> int:
    if args.report:
        recorder = InMemoryRecorder()
        recorder.records = read_jsonl_trace(args.report)
        starts = [r for r in recorder.events() if r["event"] == "run_start"]
        for event in starts:
            print(
                f"run: {event.get('workload', '?')} on {event.get('scheme', '?')} "
                f"({event.get('entries', '?')} trace entries)"
            )
        registry = collect_trace(recorder)
        print(registry.render(f"trace report ({args.report})"))
        return 0
    if not args.output:
        usage_error("either -o/--output (export) or --report is required")
    trace = workload_trace(args)
    trace.save(args.output)
    print(
        f"wrote {len(trace)} entries ({trace.footprint_blocks} blocks) "
        f"to {args.output}"
    )
    return 0


def cmd_audit(args) -> int:
    """The obliviousness verdict: the whole run's leaf sequence must be
    uniform and lag-1 uncorrelated, and every window of it uniform (a
    leak confined to some windows dilutes into a healthy whole run)."""
    scheme = oram_scheme(args, "audit")
    trace = workload_trace(args)
    config = experiment_config()
    # The monitor needs the scaled tree's leaf count before the build.
    num_leaves = config.oram.scaled_to_footprint(trace.footprint_blocks).num_leaves
    observer = AccessObserver()
    monitor = from_options(
        LeafUniformityMonitor, num_leaves, window=args.window, forward_to=observer
    )
    SecureSystem.build(
        scheme, trace.footprint_blocks, config, observer=monitor
    ).run(trace)
    leaves = observer.leaves()
    if len(leaves) <= 2:  # lag-1 autocorrelation needs three samples
        print(f"too few path accesses to audit ({len(leaves)})")
        return 2
    _, p = chi_square_uniformity(leaves, num_leaves)
    corr = lag_autocorrelation(leaves, lag=1)
    print(f"{len(leaves)} path accesses over {num_leaves} leaves")
    print(f"uniformity chi^2 p-value: {p:.4f}")
    print(f"lag-1 autocorrelation:    {corr:+.4f}")
    monitor.flush()
    print(monitor.render())
    oblivious = p > 1e-3 and abs(corr) < 0.05 and monitor.healthy
    print(f"verdict: {'OBLIVIOUS' if oblivious else 'SUSPECT'}")
    return 0 if oblivious else 1


def cmd_parity(args) -> int:
    """Drive every ORAMScheme implementation with one shared seeded trace."""
    if args.scheme == "all":
        names = list(SCHEME_FACTORIES)
    elif args.scheme in SCHEME_FACTORIES:
        names = [args.scheme]
    else:
        known = ", ".join(sorted(SCHEME_FACTORIES)) + ", all"
        usage_error(f"unknown ORAM scheme '{args.scheme}' (known: {known})")
    if args.accesses < 1:
        usage_error("--accesses must be at least 1")
    schemes = [
        from_options(
            build_scheme, name, levels=args.levels, num_blocks=args.blocks, seed=args.seed
        )
        for name in names
    ]
    rng = DeterministicRng(args.seed)
    addrs = [rng.randint(0, args.blocks - 1) for _ in range(args.accesses)]
    rows = []
    for name, scheme in zip(names, schemes):
        max_on_chip = 0
        drains = 0
        for addr in addrs:
            scheme.begin_access([addr])
            scheme.finish_access()
            drains += scheme.drain_stash()
            if scheme.stash_occupancy > max_on_chip:
                max_on_chip = scheme.stash_occupancy
        report = run_fsck(scheme)
        rows.append(
            [name, len(addrs), max_on_chip, drains,
             "clean" if report.ok else f"{len(report.errors)} error(s)"]
        )
    print(
        format_table(
            ["scheme", "accesses", "max_on_chip", "bg_evictions", "fsck"], rows
        )
    )
    return 0 if all(row[-1] == "clean" for row in rows) else 1


def cmd_parallel(args) -> int:
    """Race the process-parallel shard runtime against the serial bank."""
    scheme = bank_scheme(args)
    policy = health_policy(args)
    trace = workload_trace(args)
    requests = requests_from_trace(trace)
    config = memory_config(args)
    workers = args.parallel_workers
    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as checkpoint_dir:
        # Opened first, so the runtime refuses a bad worker count, batch
        # size or checkpoint cadence before the serial reference runs.
        with from_options(
            ParallelShardRuntime,
            scheme,
            trace.footprint_blocks,
            config,
            workers,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            batch_size=args.batch,
            health_policy=policy,
        ) as runtime:
            print(
                f"{trace.name}: {len(requests)} demand requests over "
                f"{trace.footprint_blocks} blocks, {workers}-worker parallel bank"
                + channel_banner(config)
            )
            begin = time.perf_counter()
            serial = run_serial_reference(
                scheme,
                trace.footprint_blocks,
                requests,
                config,
                num_shards=workers,
                workload=trace.name,
                health_policy=policy,
            )
            serial_s = time.perf_counter() - begin
            begin = time.perf_counter()
            parallel = runtime.run(requests, workload=trace.name, fsck=args.fsck)
            parallel_s = time.perf_counter() - begin
            restarts = runtime.total_restarts()
    identical = dataclasses.asdict(serial) == dataclasses.asdict(parallel)
    rows = [
        ["serial", f"{serial_s:.2f}", serial.cycles, serial.demand_requests],
        ["parallel", f"{parallel_s:.2f}", parallel.cycles, parallel.demand_requests],
    ]
    print(format_table(["mode", "wall_s", "sim_cycles", "demand"], rows))
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(
        f"\nwall-clock speedup: {speedup:.2f}x   merged result: "
        + ("bit-identical to serial" if identical else "MISMATCH")
        + (f"   worker restarts: {restarts}" if restarts else "")
    )
    return 0 if identical else 1


def cmd_serve(args) -> int:
    """Drive the deadline-aware serving front end over a sharded bank."""
    scheme = bank_scheme(args)
    weights = None
    if args.weights:
        weights = [from_options(int, w) for w in args.weights.split(",") if w.strip()]
    if args.deadline < 1:
        usage_error("--deadline must be at least 1 cycle")
    shards = shard_count(args)
    policy = health_policy(args)
    load = dict(
        footprint_per_tenant=args.footprint,
        write_fraction=args.write_frac,
        deadline_cycles=args.deadline,
        weights=weights,
        seed=args.seed,
    )
    if args.mode == "open":
        source = from_options(
            OpenLoopSource.synthetic, args.tenants, args.requests,
            gap_mean=args.gap, locality=args.locality, **load,
        )
        mode_desc = f"open loop, mean gap {args.gap:g}"
    else:
        source = from_options(
            ClosedLoopSource, args.tenants, args.clients, args.requests,
            think_mean=args.think, **load,
        )
        mode_desc = f"closed loop, {args.clients} clients/tenant, think {args.think:g}"
    serve_config = from_options(
        ServeConfig,
        batch_size=args.batch,
        queue_capacity=args.queue_capacity,
        max_backlog=args.max_backlog,
        coalesce=not args.no_coalesce,
    )
    workload = f"serve_{args.mode}"
    frontend = ServingFrontEnd.build(
        scheme,
        source.footprint_blocks,
        memory_config(args),
        shards,
        serve_config=serve_config,
        health_policy=policy,
        workload=workload,
    )
    print(
        f"{workload}: {args.tenants} tenants over a {shards}-shard "
        f"'{scheme}' bank ({mode_desc}, deadline {args.deadline:,})"
    )
    report = frontend.run(source)
    print(report.render())
    if args.metrics:
        print(collect_serve(frontend).render("serve metrics"))
    return 0


def cmd_chaos(args) -> int:
    """Cross-layer chaos storm: KV ladder + parallel runtime + bank plane."""
    # --ops splits 40/20/40 over parallel/kv/bank; the report's header
    # says how many of them the chosen --layers ran.
    parallel_ops = bank_ops = (2 * args.ops) // 5
    kv_ops = args.ops - parallel_ops - bank_ops
    scenario = from_options(
        ChaosScenario,
        name=args.name,
        seed=args.seed,
        scheme=bank_scheme(args),
        num_shards=args.shards,
        parallel_ops=parallel_ops,
        kv_ops=kv_ops,
        bank_ops=bank_ops,
    )
    policy = health_policy(args) or chaos_policy()
    layers = tuple(
        layer.strip() for layer in args.layers.split(",") if layer.strip()
    )
    from_options(check_chaos_layers, layers)
    report = run_chaos(scenario, policy, layers=layers)
    print(report.render())
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.output}")
    return 0 if report.ok else 1


# --------------------------------------------------------------------- main
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PrORAM reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and schemes").set_defaults(func=cmd_list)

    run_p = sub.add_parser("run", help="run one workload through schemes")
    add_workload_options(run_p)
    run_p.add_argument("-s", "--schemes", default="oram,stat,dyn")
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="report simulator throughput (accesses/sec, phase timers, "
        "component counters) per scheme",
    )
    run_p.add_argument(
        "--fault-transient",
        type=float,
        default=FaultConfig.transient_rate,
        metavar="RATE",
        help="per-access transient read-failure probability (ORAM schemes)",
    )
    run_p.add_argument(
        "--fault-delay",
        type=float,
        default=FaultConfig.delay_rate,
        metavar="RATE",
        help="per-access delayed-response probability (ORAM schemes)",
    )
    run_p.add_argument(
        "--fault-delay-cycles",
        type=int,
        default=FaultConfig.delay_cycles,
        metavar="CYCLES",
        help="extra latency per delayed response",
    )
    run_p.add_argument(
        "--fault-seed",
        type=int,
        default=1,
        help="fault-schedule seed (same seed -> same schedule)",
    )
    add_shards_option(
        run_p,
        1,
        help="channel-interleave the ORAM over N independent controller "
        "instances (1 = the paper's single serialized controller)",
    )
    add_health_option(
        run_p,
        "attach a per-shard circuit-breaker control plane to the "
        "ORAM bank (a lone controller runs as a bank of one); keys are "
        "HealthPolicy fields, e.g. window=32,quarantine_cooldown=16",
    )
    run_p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a per-access span trace (JSONL) per ORAM scheme; "
        "multi-scheme runs insert the scheme name before the suffix",
    )
    add_memory_options(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="parameter sweeps (locality/stash/z)")
    sweep_p.add_argument("parameter", choices=["locality", "stash", "z"])
    add_workload_options(sweep_p, required=False)
    sweep_p.add_argument("-s", "--schemes", default="stat,dyn")
    sweep_p.set_defaults(func=cmd_sweep)

    trace_p = sub.add_parser(
        "trace", help="export a workload trace, or summarize a span trace"
    )
    add_workload_options(trace_p, required=False)
    trace_p.add_argument("-o", "--output")
    trace_p.add_argument(
        "--report",
        metavar="FILE",
        help="summarize a span-trace JSONL written by `repro run --trace-out`",
    )
    trace_p.set_defaults(func=cmd_trace)

    audit_p = sub.add_parser("audit", help="obliviousness audit of a scheme")
    add_workload_options(audit_p)
    add_scheme_option(audit_p)
    audit_p.add_argument(
        "--window",
        type=int,
        default=4096,
        metavar="N",
        help="leaf observations per uniformity test window",
    )
    audit_p.set_defaults(func=cmd_audit)

    parallel_p = sub.add_parser(
        "parallel",
        help="race the process-parallel shard runtime against the serial bank",
    )
    add_workload_options(parallel_p, required=False, accesses=8_000)
    add_scheme_option(parallel_p)
    parallel_p.add_argument(
        "--parallel-workers",
        type=int,
        default=2,
        metavar="N",
        help="shard/worker-process count (one ORAM channel per process)",
    )
    parallel_p.add_argument(
        "--batch",
        type=int,
        default=64,
        metavar="REQUESTS",
        help="requests per shipped batch",
    )
    parallel_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="BATCHES",
        help="worker checkpoint cadence (1 = after every batch)",
    )
    parallel_p.add_argument(
        "--fsck",
        action="store_true",
        help="audit every shard's ORAM invariants in-worker after the run",
    )
    add_health_option(
        parallel_p,
        "supervise workers with per-shard circuit breakers "
        "(heartbeats, deadlines, quarantine fallback); see DESIGN.md §10",
    )
    add_memory_options(parallel_p)
    parallel_p.set_defaults(func=cmd_parallel)

    serve_p = sub.add_parser(
        "serve",
        help="deadline-aware multi-tenant serving front end over a "
        "sharded bank (open/closed-loop load generator)",
    )
    add_scheme_option(serve_p)
    serve_p.add_argument("--mode", choices=["open", "closed"], default="open")
    add_shards_option(serve_p, 4)
    serve_p.add_argument("--tenants", type=int, default=3, metavar="K")
    serve_p.add_argument(
        "--weights",
        metavar="W0,W1,...",
        help="per-tenant fair-share weights (default: equal)",
    )
    serve_p.add_argument(
        "--requests",
        type=int,
        default=2_000,
        metavar="N",
        help="open loop: requests per tenant; closed loop: per client",
    )
    serve_p.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="closed loop: client population per tenant",
    )
    serve_p.add_argument(
        "--footprint", type=int, default=2_048, metavar="BLOCKS",
        help="private address region per tenant",
    )
    serve_p.add_argument(
        "--gap", type=float, default=600.0, metavar="CYCLES",
        help="open loop: mean inter-arrival gap per tenant",
    )
    serve_p.add_argument(
        "--think", type=float, default=5_000.0, metavar="CYCLES",
        help="closed loop: mean client think time",
    )
    serve_p.add_argument("--locality", type=float, default=0.5)
    serve_p.add_argument("--write-frac", type=float, default=0.2)
    serve_p.add_argument("--batch", type=int, default=ServeConfig.batch_size,
                         metavar="N", help="per-shard batch quota")
    serve_p.add_argument("--deadline", type=int, default=DEFAULT_DEADLINE,
                         metavar="CYCLES")
    serve_p.add_argument("--queue-capacity", type=int,
                         default=ServeConfig.queue_capacity, metavar="N")
    serve_p.add_argument("--max-backlog", type=int,
                         default=ServeConfig.max_backlog, metavar="N")
    serve_p.add_argument("--no-coalesce", action="store_true",
                         help="disable super-block request coalescing")
    add_health_option(
        serve_p,
        "attach per-shard circuit breakers; DEGRADED shards get "
        "smaller batch quotas, QUARANTINED shards reroute at admission",
    )
    serve_p.add_argument("--metrics", action="store_true",
                         help="print the serve.* metrics registry")
    add_seed_option(serve_p, 42)
    add_memory_options(serve_p, interconnect=False)
    serve_p.set_defaults(func=cmd_serve)

    chaos_p = sub.add_parser(
        "chaos",
        help="seed-deterministic multi-fault storm across all resilience "
        "layers (KV ladder, parallel runtime, in-process bank)",
    )
    chaos_p.add_argument("--name", default=ChaosScenario.name)
    chaos_p.add_argument("--ops", type=int, default=20_000,
                         help="total ops, split 40/20/40 over parallel/kv/bank")
    add_shards_option(chaos_p, ChaosScenario.num_shards)
    add_scheme_option(chaos_p)
    add_seed_option(chaos_p, ChaosScenario.seed)
    chaos_p.add_argument(
        "--layers",
        default="kv,parallel,bank",
        help="comma-separated subset of kv,parallel,bank",
    )
    add_health_option(
        chaos_p,
        "override the storm-tuned HealthPolicy (same grammar as "
        "`repro run --health-policy`)",
    )
    chaos_p.add_argument("-o", "--output", metavar="FILE",
                         help="write the full JSON report")
    chaos_p.set_defaults(func=cmd_chaos)

    parity_p = sub.add_parser(
        "parity", help="run one seeded trace through every ORAMScheme"
    )
    parity_p.add_argument(
        "--scheme",
        default="all",
        help="path | ring | tree | all (default: all)",
    )
    parity_p.add_argument("--accesses", type=int, default=2_000)
    parity_p.add_argument("--blocks", type=int, default=96)
    parity_p.add_argument("--levels", type=int, default=6)
    add_seed_option(parity_p, 7)
    parity_p.set_defaults(func=cmd_parity)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
