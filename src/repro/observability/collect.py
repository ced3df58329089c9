"""Metric collection: snapshots in, one registry out.

Components keep owning their cheap inline counters (dataclass fields, bare
attributes named by a ``COUNTERS`` tuple -- the hot path never touches a
registry) and nothing here walks them.  A controller is read by the one
walk it has, :meth:`~repro.memory.oram_backend.ORAMBackend.counters` -- the
same plain dict the result fold and the checkpoint read -- and
:func:`collect_controllers` turns such dicts into a
:class:`~repro.observability.metrics.MetricsRegistry` under stable
dot-separated names, so the report is the same for a live system and for
snapshots a worker process shipped over a queue.  :func:`collect_system`
adds the cache side of a finished
:class:`~repro.sim.system.SecureSystem`.  Host time goes through the same
registry: :func:`time_system` shims a system's entry points through
``host.*`` timers and :func:`render_profile` is the ``repro run --profile``
report.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.memory.backend import FAULT_COUNTERS, sum_counters
from repro.memory.interconnect import (
    ChannelState,
    MemoryInterconnect,
    stream_efficiency,
)

from .metrics import MetricsRegistry
from .recorder import InMemoryRecorder
from .spans import is_span


def collect_system(system, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Sample every component counter of a finished system run.

    Registry names group by component: ``cache.*``, ``backend.*``, and --
    through :func:`collect_controllers` over ``backend.snapshot_shards()``
    (none for DRAM, one for a lone controller, the channels for a bank) --
    ``oram.*``, ``pipeline.*``, ``scheme.*``, ``interconnect.*``,
    ``bank.*``, ``faults.*``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    hierarchy = system.hierarchy
    registry.counter("cache.l1_hits").set(sum(l1.hits for l1 in hierarchy.l1s))
    registry.counter("cache.l1_misses").set(sum(l1.misses for l1 in hierarchy.l1s))
    registry.counter("cache.llc_hits").set(hierarchy.llc.hits)
    registry.counter("cache.llc_misses").set(hierarchy.llc.misses)
    registry.counter("cache.llc_evictions").set(hierarchy.llc.evictions)
    registry.counter("cache.llc_tag_probes").set(hierarchy.llc.probe_count)

    backend = system.backend
    stats = backend.stats
    registry.counter("backend.demand_requests").set(stats.demand_requests)
    registry.counter("backend.write_accesses").set(stats.write_accesses)
    registry.counter("backend.posmap_accesses").set(stats.posmap_accesses)
    registry.counter("backend.dummy_accesses").set(stats.dummy_accesses)
    registry.counter("backend.memory_accesses").set(stats.memory_accesses)

    collect_controllers(backend.snapshot_shards(), registry, backend.bank_width)
    if backend.bank_width is not None and backend.health is not None:
        backend.health.to_registry(registry)
    return registry


def collect_controllers(
    snapshots: Sequence[dict],
    registry: Optional[MetricsRegistry] = None,
    bank_width: Optional[int] = None,
) -> MetricsRegistry:
    """Register ORAM controllers from their ``counters()`` snapshots.

    Sums over the controllers, except the stash watermark, which is the
    worst one's, and the interconnect, which gets one prefix per controller
    (``interconnect`` for a lone one, ``interconnect.shard<i>`` when
    *bank_width* says they are the channels of a bank) -- so a bank reports
    the same names a controller does.  No snapshots (DRAM) registers
    nothing.
    """
    registry = registry if registry is not None else MetricsRegistry()
    if not snapshots:
        return registry
    registry.gauge("oram.stash_max_occupancy").set(
        max(snap["stash_max_occupancy"] for snap in snapshots)
    )
    oram = sum_counters(snap["oram"] for snap in snapshots)
    registry.counter("oram.stash_soft_overflows").set(oram["stash_soft_overflows"])
    registry.counter("oram.real_path_accesses").set(oram["real_accesses"])
    registry.counter("oram.dummy_path_accesses").set(oram["dummy_accesses"])
    phases = sum_counters(snap["phase_cycles"] for snap in snapshots)
    for name, cycles in phases.items():
        registry.counter(f"pipeline.phase_{name}_cycles").set(cycles)
    scheme_stats = sum_counters(snap["scheme_stats"] for snap in snapshots)
    registry.absorb(scheme_stats, "scheme.")

    # Memory-interconnect occupancy, one prefix per controller.  The
    # treetop flush counters live on the functional tree (write-back is a
    # tree-side event) but are exported next to their hit/bytes-saved
    # siblings.
    for index, snap in enumerate(snapshots):
        prefix = "interconnect"
        if bank_width is not None:
            prefix += f".shard{index}"
        register_interconnect(snap["interconnect"], registry, prefix)
        treetop = snap["treetop"]
        if treetop is not None:
            registry.counter(f"{prefix}.treetop_flushes").set(treetop["flushes"])
            registry.counter(f"{prefix}.treetop_flushed_buckets").set(
                treetop["flushed_buckets"]
            )
    if bank_width is not None:
        registry.gauge("bank.num_shards").set(bank_width)

    # A bank's snapshots report an injector its channels share only once.
    injected = [snap["injector"] for snap in snapshots if snap["injector"]]
    if injected:
        stats = sum_counters(snap["stats"] for snap in snapshots)
        registry.absorb({name: stats[name] for name in FAULT_COUNTERS}, "faults.")
        registry.counter("faults.injected_faults").set(
            sum(counters["total_injected"] for counters in injected)
        )
    return registry


def register_interconnect(state: dict, registry: MetricsRegistry, prefix: str) -> None:
    """Export a :meth:`MemoryInterconnect.state_dict` under ``{prefix}.*``:
    the shared counters, and for the channel model the mean streamed path,
    its ratio to the public cost, the array latency the pipelined train hid,
    the cycles early data return gave the core and every channel's report
    plus its bus occupancy."""
    registry.gauge(f"{prefix}.path_cycles").set(state["path_cycles"])
    registry.absorb(
        {name: state[name] for name in MemoryInterconnect.COUNTERS}, f"{prefix}."
    )
    channels = state.get("channels")
    if channels is None:
        return
    registry.gauge(f"{prefix}.num_channels").set(len(channels))
    if state["streamed_paths"]:
        registry.histogram(f"{prefix}.path_stream_cycles").record(
            state["streamed_cycles_total"] // state["streamed_paths"]
        )
    efficiency = stream_efficiency(
        state["streamed_paths"], state["path_cycles"], state["streamed_cycles_total"]
    )
    registry.gauge(f"{prefix}.stream_efficiency").set(round(efficiency, 6))
    registry.counter(f"{prefix}.hidden_latency_cycles").set(
        state["hidden_latency_cycles"]
    )
    registry.counter(f"{prefix}.early_return_cycles").set(state["early_return_cycles"])
    horizon = state["last_completion"]
    for index, channel in enumerate(channels):
        name = f"{prefix}.channel{index}"
        registry.absorb(
            {slot: channel[slot] for slot in ChannelState.REPORTED}, f"{name}."
        )
        occupancy = channel["busy_cycles"] / horizon if horizon else 0.0
        registry.gauge(f"{name}.bus_occupancy_pct").set(round(100.0 * occupancy, 3))


def collect_serve(frontend, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Report a :class:`~repro.serve.ServingFrontEnd` into *registry*.

    The front end counts in bare attributes; this names its one walk:
    ``frontend.counters()`` as the fifteen ``serve.*`` counters (zeros
    included -- a report that says 0 sheds beats one that omits the line),
    ``frontend.histograms()`` under their own names, the per-tenant
    queue-peak gauges of a run that started, plus ``bank.num_shards`` and
    any attached health plane's ``health.*`` -- one collection call gives
    the full serving picture.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.absorb(frontend.counters(), "serve.")
    registry.absorb(frontend.histograms())
    if frontend.queues is not None:
        for tenant, peak in enumerate(frontend.queues.peak_depth):
            registry.gauge(f"serve.tenant{tenant}.queue_peak").set(peak)
    registry.gauge("bank.num_shards").set(frontend.bank.num_shards)
    if frontend.bank.health is not None:
        frontend.bank.health.to_registry(registry)
    return registry


def collect_parallel(runtime, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Report a ``ParallelShardRuntime``'s workers into *registry*.

    Names ``runtime.worker_snapshots()`` under ``parallel.worker<i>.*``:
    the ``queue_depth`` gauge and the ``restarts`` / ``hangs`` counters for
    every worker (a report that says ``0`` beats one that silently omits
    the healthy shards), ``batches`` / ``fallback_batches`` (batches a
    quarantined worker served) and the ``batch_roundtrip_us`` histogram
    once they hold an event; a health control plane, when attached, lands
    under its usual ``health.*`` names.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.gauge("parallel.num_workers").set(runtime.num_workers)
    for index, snap in enumerate(runtime.worker_snapshots()):
        prefix = f"parallel.worker{index}."
        registry.gauge(prefix + "queue_depth").set(snap["queue_depth"])
        if snap["batch_roundtrip_us"].total:
            registry.absorb([snap["batch_roundtrip_us"]], prefix)
        registry.absorb(
            {
                name: count
                for name, count in snap["counters"].items()
                if count or name in ("restarts", "hangs")
            },
            prefix,
        )
    if runtime.health is not None:
        runtime.health.to_registry(registry)
    return registry


def collect_trace(
    recorder: InMemoryRecorder, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Distill a recorded trace into registry metrics.

    Produces per-kind span counters (``trace.spans.demand`` ...), a
    per-kind latency :class:`CycleHistogram`, per-phase cycle counters
    matching the pipeline breakdown, and a stash-occupancy histogram --
    the summary the ``repro trace`` report prints.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for record in recorder.records:
        if not is_span(record):
            registry.counter(f"trace.events.{record['event']}").inc()
            continue
        kind = record["kind"]
        registry.counter(f"trace.spans.{kind}").inc()
        registry.histogram(f"trace.latency.{kind}").record(
            record["end"] - record["start"]
        )
        registry.histogram("trace.stash_occupancy").record(record["stash"])
        for name, cycles in record["phases"].items():
            registry.counter(f"trace.phase_{name}_cycles").inc(cycles)
        registry.counter("trace.phase_fault_cycles").inc(record["fault_delay"])
        registry.counter("trace.retries").inc(record["retries"])
        registry.counter("trace.merges").inc(record["merges"])
        registry.counter("trace.breaks").inc(record["breaks"])
    return registry


def time_system(system, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Shim a system's ``run`` and the four entry points a run drives
    through ``host.*`` registry timers (call before ``run``).

    The reference loop ``run`` enters (one core or N) binds
    ``hierarchy.access`` and the backend's entry points when it starts, so
    instance-attribute shims installed here cover the whole replay; the
    simulation itself is untouched (same SimResult).
    """
    registry = registry if registry is not None else MetricsRegistry()
    for name, holder, attr in (
        ("host.run", system, "run"),
        ("host.cache_hierarchy", system.hierarchy, "access"),
        ("host.backend_demand", system.backend, "demand_access"),
        ("host.backend_writeback", system.backend, "evict_line"),
        ("host.backend_prefetch", system.backend, "prefetch_access"),
    ):
        setattr(holder, attr, registry.timer(name).wrap(getattr(holder, attr)))
    return registry


def render_profile(system, registry: MetricsRegistry, workload: str) -> str:
    """The ``repro run --profile`` report of a finished :func:`time_system`
    run: accesses/sec, each entry point's share of the run's wall time,
    then the timers and every :func:`collect_system` counter."""
    collect_system(system, registry)
    run = registry.timer("host.run")
    wall = run.seconds or float("inf")  # an untimed system reports zeros
    entries = registry.timer("host.cache_hierarchy").calls
    phases = sorted(
        (
            timer
            for timer in registry
            if timer.kind == "timer" and timer is not run and timer.calls
        ),
        key=lambda timer: -timer.seconds,
    )
    shares = ", ".join(
        f"{timer.name.split('.', 1)[1]} {timer.seconds / wall:.1%}"
        for timer in phases
    )
    return "\n".join(
        [
            f"profile: {system.label} on {workload}",
            f"  {entries} accesses in {run.seconds:.3f} s "
            f"({entries / wall:,.0f} accesses/sec)",
            f"  share of the run's wall time: {shares}",
            registry.render("  counters"),
        ]
    )
