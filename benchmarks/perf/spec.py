"""What the benchmark measures: workloads, layers, boundaries and metric names.

Everything a later PR may cite by name is declared here once.  ``run.py``
emits exactly these metrics, ``compare.py`` reads bounds and exactness from
here, and ``test_smoke.py`` checks that ``BENCHMARK.json`` (whose schema
is fixed by the driver and cannot carry ``moves`` / ``workloads`` /
``exact``) mirrors the names, units, directions and bounds below.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# --------------------------------------------------------------- workloads
#: name -> why it is in the list (one line each; copied into BENCHMARK.json)
WORKLOADS: Dict[str, str] = {
    "trace_local_read": (
        "80%-locality read-only trace on dyn, flat interconnect: warm prefetcher; "
        "oram + controller.pipeline + core do the work"
    ),
    "trace_tpcc_write": (
        "TPC-C trace (77% writes) on dyn with 4 DRAM channels and a 4-level treetop: "
        "the write-back entry; oram.tree + memory.interconnect do the work"
    ),
    "serve_zipf_open": (
        "open-loop Zipf YCSB requests from 4 tenants into a 4-shard serving front end "
        "at the knee of the load curve: coalescing, deadline closes, tail latency"
    ),
    "parallel_durable_2w": (
        "captured 4-core miss stream through 2 worker processes checkpointing before "
        "every ack: the durable default, runtime overhead dominates the ORAM core"
    ),
    "trace_dram_bypass": (
        "the same locality trace on scheme dram: ORAM bypassed, only sim + cache + "
        "DRAMBackend run; every ORAM-side optimisation predicts no change here"
    ),
}

ALL = tuple(WORKLOADS)
TRACE_ORAM = ("trace_local_read", "trace_tpcc_write")
SERVE = ("serve_zipf_open",)

#: simulated-cycle completion deadline of a served request (ServeConfig default)
SLO_DEADLINE_CYCLES = 30_000
#: offered-load multipliers swept on serve_zipf_open for serve.slo_load_scale
SLO_LOAD_SCALES = (0.09, 0.12, 0.15, 0.18)

# ------------------------------------------------------ end-to-end metrics
# bound: share of the base median by which the metric may get worse under
#        compare.py, which compares two commits at one seed (kind "abs":
#        absolute difference instead).
# exact: a pure function of (commit, seed) -- two runs must agree to the digit.
# driver: the metric's bound in BENCHMARK.json's end_to_end list (emitted with
#         --trace 0), or None.  The driver requires such a metric on every
#         workload, never 0, and with a run-to-run spread over ten *seeds*
#         inside a bound of at most 0.25.  The workload-specific metrics
#         cannot meet the first two conditions and host_ops_per_s cannot meet
#         the third on a shared 2-vCPU host (measured 0.09-0.23, see README),
#         so they ride in the driver's unbounded per_layer list and are
#         bound-checked by compare.py.  The driver bounds of the exact
#         metrics are wider than compare.py's because their seed-to-seed
#         spread (up to 0.021) has to stay below a third of the bound.
END_TO_END: List[dict] = [
    dict(name="setup_s", unit="s", better="lower", bound=0.25, kind="rel",
         exact=False, workloads=ALL, driver=0.25),
    dict(name="host_ops_per_s", unit="1/s", better="higher", bound=0.20, kind="rel",
         exact=False, workloads=ALL, driver=None),
    dict(name="host_pycalls_per_op", unit="calls/op", better="lower", bound=0.02,
         kind="rel", exact=True, workloads=ALL, driver=0.07),
    dict(name="host_peak_rss_mb", unit="MB", better="lower", bound=0.10, kind="rel",
         exact=False, workloads=ALL, driver=0.10),
    dict(name="sim_cycles_per_op", unit="cycles/op", better="lower", bound=0.01,
         kind="rel", exact=True, workloads=ALL, driver=0.07),
    dict(name="sim_gain_vs_oram", unit="ratio", better="higher", bound=0.01,
         kind="abs", exact=True, workloads=TRACE_ORAM, driver=None),
    dict(name="sim_latency_p50_cycles", unit="cycles", better="lower", bound=0.02,
         kind="rel", exact=True, workloads=SERVE, driver=None),
    dict(name="sim_latency_p99_cycles", unit="cycles", better="lower", bound=0.10,
         kind="rel", exact=True, workloads=SERVE, driver=None),
    dict(name="sim_latency_p999_cycles", unit="cycles", better="lower", bound=0.10,
         kind="rel", exact=True, workloads=SERVE, driver=None),
    dict(name="sim_slo_miss_frac", unit="frac", better="lower", bound=0.005,
         kind="abs", exact=True, workloads=SERVE, driver=None),
    dict(name="failed_frac", unit="frac", better="lower", bound=0.0, kind="abs",
         exact=True, workloads=ALL, driver=None),
]

# ---------------------------------------------------- layers and boundaries
#: layer -> ((module, class or None for a module function, attribute), ...).
#: Each becomes a span named ``<layer>.<attribute>``.
#: ``BinaryTree.write_bucket_at`` is deliberately absent: PathORAM's
#: write-back stores buckets directly, so the method is reached only from
#: checkpoint restore, which no workload runs in the measuring process.
BOUNDARIES: Dict[str, Tuple[Tuple[str, object, str], ...]] = {
    "sim": (("repro.sim.system", "SecureSystem", "run"),),
    "cache": (
        ("repro.cache.hierarchy", "CacheHierarchy", "access"),
        ("repro.cache.hierarchy", "CacheHierarchy", "fill_demand"),
        ("repro.cache.hierarchy", "CacheHierarchy", "fill_prefetch"),
    ),
    "memory.backend": (
        ("repro.memory.oram_backend", "ORAMBackend", "demand_access"),
        ("repro.memory.oram_backend", "ORAMBackend", "evict_line"),
        ("repro.memory.dram", "DRAMBackend", "demand_access"),
        ("repro.memory.dram", "DRAMBackend", "evict_line"),
    ),
    "controller.pipeline": (
        ("repro.controller.pipeline", "AccessPipeline", "execute"),
    ),
    "oram": (
        ("repro.oram.path_oram", "PathORAM", "begin_access"),
        ("repro.oram.path_oram", "PathORAM", "finish_access"),
        ("repro.oram.path_oram", "PathORAM", "drain_stash"),
        ("repro.oram.path_oram", "PathORAM", "dummy_access"),
        ("repro.oram.recursion", "PosMapHierarchy", "lookup"),
    ),
    "oram.tree": (
        ("repro.oram.tree", "BinaryTree", "read_path_into"),
        ("repro.oram.tree", "BinaryTree", "flush_treetop"),
    ),
    "core": (
        ("repro.core.dynamic", "DynamicSuperBlockScheme", "members_for"),
        ("repro.core.dynamic", "DynamicSuperBlockScheme", "process_fetch"),
        ("repro.core.dynamic", "DynamicSuperBlockScheme", "on_llc_evict"),
        ("repro.oram.super_block", "PrefetchTracker", "on_use"),
    ),
    "memory.interconnect": (
        ("repro.memory.interconnect", "FlatInterconnect", "path_completion"),
        ("repro.memory.interconnect", "FlatInterconnect", "note_untracked"),
        ("repro.memory.interconnect", "ChannelInterconnect", "path_completion"),
        ("repro.memory.interconnect", "ChannelInterconnect", "note_untracked"),
    ),
    "controller.sharded": (
        ("repro.controller.sharded", "ShardedORAMBank", "access_batch"),
        ("repro.controller.sharded", "ShardedORAMBank", "demand_access"),
    ),
    "serve": (
        ("repro.serve.frontend", "ServingFrontEnd", "run"),
        ("repro.serve.queue", "TenantQueues", "push"),
        ("repro.serve.queue", "TenantQueues", "pop_where"),
        ("repro.serve.loadgen", "LoadSource", "take_arrivals"),
    ),
    "health": (
        ("repro.health.plane", "HealthControlPlane", "record_access"),
        ("repro.health.plane", "HealthControlPlane", "should_reroute"),
        ("repro.health.plane", "HealthControlPlane", "throttled"),
    ),
    "parallel": (
        ("repro.parallel.runtime", "ParallelShardRuntime", "__init__"),
        ("repro.parallel.runtime", "ParallelShardRuntime", "run"),
        ("repro.parallel.runtime", "ParallelShardRuntime", "close"),
        ("repro.parallel.merge", None, "run_serial_reference"),
    ),
}

LAYERS = tuple(BOUNDARIES)


def span_layers() -> Dict[str, str]:
    """``<layer>.<function>`` span name -> layer, in table order."""
    return {
        f"{layer}.{attr}": layer
        for layer, entries in BOUNDARIES.items()
        for _module, _owner, attr in entries
    }


#: source path prefix under ``src/repro/`` -> layer, longest prefix wins
#: (the counted pass attributes a Python call by its callee's file and a C
#: call by the file of the frame that made it).
PATH_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("cache/", "cache"),
    ("memory/interconnect.py", "memory.interconnect"),
    ("memory/", "memory.backend"),
    ("controller/pipeline.py", "controller.pipeline"),
    ("controller/sharded.py", "controller.sharded"),
    ("controller/", "oram"),  # mixins.py / scheme.py: the ORAM protocol machinery
    ("oram/tree.py", "oram.tree"),
    ("oram/super_block.py", "core"),  # scheme interface + PrefetchTracker
    ("oram/", "oram"),
    ("core/", "core"),
    ("serve/", "serve"),
    ("health/", "health"),
    ("parallel/", "parallel"),
)

# -------------------------------------------------------- per-layer metrics
_HOST_LOCAL = "host_ops_per_s, host_pycalls_per_op on trace_local_read and trace_tpcc_write"
_HOST_MOVES = {
    "sim": "host_ops_per_s on trace_dram_bypass (all of it), <=15% elsewhere",
    "cache": "host_ops_per_s on trace_dram_bypass (all of it), <=15% elsewhere",
    "memory.backend": "host_ops_per_s on every trace workload (thin dispatch)",
    "controller.pipeline": _HOST_LOCAL + "; nothing on trace_dram_bypass",
    "oram": _HOST_LOCAL + "; <=1/3 of parallel_durable_2w; nothing on trace_dram_bypass",
    "oram.tree": "host_ops_per_s on trace_tpcc_write (small share on trace_local_read)",
    "core": _HOST_LOCAL,
    "memory.interconnect": "host_ops_per_s on trace_tpcc_write only (0.5% on trace_local_read)",
    "controller.sharded": "host_ops_per_s on serve_zipf_open",
    "serve": "host_ops_per_s on serve_zipf_open only",
    "health": "host_ops_per_s on serve_zipf_open only",
    "parallel": "host_ops_per_s and setup_s on parallel_durable_2w",
}

_SIM_LOCAL = "sim_cycles_per_op down / sim_gain_vs_oram up on trace_local_read"
_SIM_TPCC = "sim_cycles_per_op on trace_tpcc_write"
_SERVE_TAIL = (
    "sim_latency_p99_cycles, sim_latency_p999_cycles, sim_slo_miss_frac, then "
    "serve.slo_load_scale, on serve_zipf_open"
)
_PARALLEL = "host_ops_per_s and setup_s on parallel_durable_2w"

#: (name, unit, better, moves) for the sim-count extras of each layer
_EXTRAS: Tuple[Tuple[str, str, str, str], ...] = (
    ("cache.l1_hit_frac", "frac", "higher", "sim_cycles_per_op on every trace workload"),
    ("cache.llc_hit_frac", "frac", "higher", _SIM_LOCAL),
    ("cache.llc_evictions_per_op", "1/op", "lower", _SIM_TPCC + " (dirty victims become write-backs)"),
    ("memory.backend.busy_cycle_frac", "frac", "lower", "sim_cycles_per_op on every ORAM workload"),
    ("memory.backend.write_frac", "frac", "lower", _SIM_TPCC + "; zero on trace_local_read"),
    ("controller.pipeline.posmap_cycles_frac", "frac", "lower", "sim_cycles_per_op on every ORAM workload"),
    ("controller.pipeline.path_read_cycles_frac", "frac", "lower", "sim_cycles_per_op on every ORAM workload"),
    ("controller.pipeline.writeback_cycles_frac", "frac", "lower", _SIM_LOCAL + " (background-eviction share)"),
    ("oram.path_accesses_per_op", "1/op", "lower", _SIM_LOCAL),
    ("oram.dummy_frac", "frac", "lower", _SIM_LOCAL),
    ("oram.posmap_hit_frac", "frac", "higher", "sim_cycles_per_op on every ORAM workload"),
    ("oram.stash_max", "count", "lower", "oram.dummy_frac, then sim_cycles_per_op"),
    ("oram.tree.treetop_bytes_saved_per_op", "bytes/op", "higher", _SIM_TPCC),
    ("core.merges", "count", "higher", _SIM_LOCAL),
    ("core.breaks", "count", "lower", _SIM_LOCAL),
    ("core.prefetch_hit_frac", "frac", "higher", _SIM_LOCAL),
    ("core.prefetched_per_miss", "1/op", "higher", _SIM_LOCAL + "; little room on trace_tpcc_write"),
    ("memory.interconnect.mean_streamed_cycles", "cycles", "lower", _SIM_TPCC),
    ("memory.interconnect.row_hit_frac", "frac", "higher", _SIM_TPCC),
    ("memory.interconnect.bank_wait_cycles_per_path", "cycles", "lower", _SIM_TPCC),
    ("controller.sharded.busy_imbalance", "ratio", "lower", _SERVE_TAIL),
    ("controller.sharded.mean_batch_size", "count", "higher", "host_ops_per_s on parallel_durable_2w"),
    ("serve.coalesced_frac", "frac", "higher", _SERVE_TAIL),
    ("serve.full_close_frac", "frac", "higher", _SERVE_TAIL),
    ("serve.deadline_close_frac", "frac", "lower", _SERVE_TAIL),
    ("serve.mean_batch_size", "count", "higher", _SERVE_TAIL),
    ("serve.shed_frac", "frac", "lower", "sim_slo_miss_frac on serve_zipf_open"),
    ("serve.slo_load_scale", "ratio", "higher", "the capacity the tail metrics add up to on serve_zipf_open"),
    ("health.transitions", "count", "lower", _SERVE_TAIL),
    ("health.rerouted", "count", "lower", _SERVE_TAIL),
    ("parallel.spawn_s", "s", "lower", "setup_s on parallel_durable_2w"),
    ("parallel.run_s", "s", "lower", "host_ops_per_s on parallel_durable_2w"),
    ("parallel.serial_reference_s", "s", "lower", "the floor parallel.run_s is judged against"),
    ("parallel.overhead_ratio", "ratio", "lower", _PARALLEL),
    ("parallel.batches", "count", "lower", _PARALLEL),
    ("parallel.checkpoint_bytes", "bytes", "lower", _PARALLEL),
    ("parallel.restarts", "count", "lower", "failed_frac on parallel_durable_2w (must stay 0)"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: how much the shims distort the traced pass"),
    ("trace.span_count", "count", "lower", "nothing: size of the traced pass"),
)


def per_layer_metrics() -> List[dict]:
    """Every per-layer metric: three host columns per layer, then the extras."""
    metrics: List[dict] = []
    for layer in LAYERS:
        moves = _HOST_MOVES[layer]
        metrics.append(dict(name=f"{layer}.calls", unit="count", better="lower", moves=moves))
        metrics.append(dict(name=f"{layer}.self_s", unit="s", better="lower", moves=moves))
        metrics.append(dict(name=f"{layer}.pycalls_per_op", unit="calls/op", better="lower", moves=moves))
    for name, unit, better, moves in _EXTRAS:
        metrics.append(dict(name=name, unit=unit, better=better, moves=moves))
    return metrics


#: per-layer metrics measured in host seconds; every other one is a count
#: that two runs of one commit and seed must reproduce to the digit
_HOST_TIME_LAYER_METRICS = {
    "parallel.spawn_s", "parallel.run_s", "parallel.serial_reference_s",
    "parallel.overhead_ratio", "trace.overhead_ratio",
}


def layer_metric_is_exact(name: str) -> bool:
    return not (name.endswith(".self_s") or name in _HOST_TIME_LAYER_METRICS)


def driver_end_to_end() -> List[dict]:
    """The ``end_to_end`` list of BENCHMARK.json."""
    return [
        dict(name=m["name"], unit=m["unit"], better=m["better"], bound=m["driver"])
        for m in END_TO_END
        if m["driver"] is not None
    ]


def driver_per_layer() -> List[dict]:
    """The ``per_layer`` list of BENCHMARK.json (incl. workload-specific e2e)."""
    listed = [
        dict(name=m["name"], unit=m["unit"], better=m["better"])
        for m in END_TO_END
        if m["driver"] is None
    ]
    listed += [
        dict(name=m["name"], unit=m["unit"], better=m["better"])
        for m in per_layer_metrics()
    ]
    return listed
