"""Metric collection: one place that knows where every counter lives.

Historically each consumer walked the component graph itself -- the
profiler built one ad-hoc ``Dict[str, int]``, benchmarks another, and the
CLI a third.  This module centralizes that walk: :func:`collect_system`
samples a finished :class:`~repro.sim.system.SecureSystem` into a
:class:`~repro.observability.metrics.MetricsRegistry` under stable
dot-separated names.  Host time goes through the same registry:
:func:`time_system` shims a system's entry points through ``host.*``
timers and :func:`render_profile` is the ``repro run --profile`` report.

Collection is snapshot-style: components keep owning their cheap inline
counters (dataclass fields, bare attributes -- the hot path never touches
a registry), and the registry is populated by copying after the run.
"""

from __future__ import annotations

from typing import Optional

from repro.oram.checkpoint import _SCHEME_STAT_FIELDS

from .metrics import CycleHistogram, MetricsRegistry
from .recorder import InMemoryRecorder
from .spans import is_span


def collect_system(system, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Sample every component counter of a finished system run.

    Registry names group by component: ``cache.*``, ``backend.*``,
    ``oram.*``, ``pipeline.*``, ``bank.*``, ``faults.*``, ``scheme.*``,
    ``interconnect.*``.  Everything ORAM-side aggregates over
    ``backend.shards`` -- none for DRAM, one for a lone controller, the
    channels for a bank (sums, except the stash watermark, which is the
    worst channel's) -- so a bank reports the same names a controller does.
    """
    registry = registry if registry is not None else MetricsRegistry()
    hierarchy = system.hierarchy
    registry.counter("cache.l1_hits").set(hierarchy.l1.hits)
    registry.counter("cache.l1_misses").set(hierarchy.l1.misses)
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

    shards = backend.shards
    if not shards:
        return registry
    orams = [shard.oram for shard in shards]
    registry.gauge("oram.stash_max_occupancy").set(
        max(oram.stash.max_occupancy for oram in orams)
    )
    registry.counter("oram.stash_soft_overflows").set(
        sum(oram.stash_soft_overflows for oram in orams)
    )
    registry.counter("oram.real_path_accesses").set(
        sum(oram.real_accesses for oram in orams)
    )
    registry.counter("oram.dummy_path_accesses").set(
        sum(oram.dummy_accesses for oram in orams)
    )
    for shard in shards:
        for name, cycles in shard.pipeline.breakdown().items():
            registry.counter(f"pipeline.phase_{name}_cycles").inc(cycles)
        for name in _SCHEME_STAT_FIELDS:
            registry.counter(f"scheme.{name}").inc(getattr(shard.scheme.stats, name))

    # Memory-interconnect occupancy, one prefix per controller.  The
    # treetop flush counter lives on the functional tree (write-back is a
    # tree-side event) but is exported next to its hit/bytes-saved siblings.
    width = backend.bank_width
    for index, shard in enumerate(shards):
        prefix = "interconnect" if width is None else f"interconnect.shard{index}"
        shard.interconnect.to_registry(registry, prefix=prefix)
        cache = shard.oram.tree.treetop
        if cache is not None:
            registry.counter(f"{prefix}.treetop_flushes").set(cache.flushes)
            registry.counter(f"{prefix}.treetop_flushed_buckets").set(
                cache.flushed_buckets
            )
    if width is not None:
        registry.gauge("bank.num_shards").set(width)
        if backend.health is not None:
            backend.health.to_registry(registry)

    # Channels of one bank share an injector; count each injector once.
    injectors = {
        id(shard.injector): shard.injector
        for shard in shards
        if shard.injector is not None
    }
    if injectors:
        registry.counter("faults.transient_faults").set(stats.transient_faults)
        registry.counter("faults.fault_retries").set(stats.fault_retries)
        registry.counter("faults.fault_delay_cycles").set(stats.fault_delay_cycles)
        registry.counter("faults.forced_evictions").set(stats.forced_evictions)
        registry.counter("faults.injected_faults").set(
            sum(injector.stats.total_injected for injector in injectors.values())
        )
    return registry


def _copy_instruments(source: MetricsRegistry, registry: MetricsRegistry) -> None:
    """Copy every live instrument of *source* into *registry* (create-or-
    get: gauges and counters take the live value, histograms its buckets)."""
    for instrument in source:
        if isinstance(instrument, CycleHistogram):
            target = registry.histogram(instrument.name)
            target.counts = list(instrument.counts)
            target.total = instrument.total
            target.sum = instrument.sum
        elif instrument.kind == "gauge":
            registry.gauge(instrument.name).set(instrument.value)
        else:
            registry.counter(instrument.name).set(instrument.value)


#: serve.* counters forced to exist (as zero) in every collection -- a
#: report that says 0 sheds beats one that silently omits the counter
_SERVE_COUNTERS = (
    "serve.offered",
    "serve.admitted",
    "serve.served",
    "serve.shed",
    "serve.shed_queue_full",
    "serve.shed_backlog",
    "serve.shed_pressure",
    "serve.coalesced",
    "serve.rerouted",
    "serve.fallback_issues",
    "serve.batches",
    "serve.full_closes",
    "serve.deadline_closes",
    "serve.drain_closes",
    "serve.deadline_misses",
)


def collect_serve(frontend, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Copy a :class:`~repro.serve.ServingFrontEnd`'s telemetry across.

    The front end populates its own registry as the event loop runs
    (``serve.*`` counters, per-tenant queue-peak gauges, and
    admission->completion / queue-wait :class:`CycleHistogram`\\ s); this
    copies the live values into *registry*, forces the standard counter
    set to exist, and adds the bank-level ``bank.num_shards`` gauge plus
    any attached health plane's ``health.*`` instruments -- one collection
    call gives the full serving picture.
    """
    registry = registry if registry is not None else MetricsRegistry()
    _copy_instruments(frontend.registry, registry)
    for name in _SERVE_COUNTERS:
        registry.counter(name)
    registry.gauge("bank.num_shards").set(frontend.bank.num_shards)
    health = getattr(frontend.bank, "health", None)
    if health is not None:
        health.to_registry(registry)
    return registry


def collect_parallel(runtime, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Merge a ``ParallelShardRuntime``'s worker telemetry into *registry*.

    The runtime populates ``parallel.worker<i>.queue_depth`` gauges,
    ``.batches`` / ``.restarts`` / ``.hangs`` / ``.fallback_batches``
    counters, and a ``.batch_roundtrip_us`` latency histogram in its own
    registry as it pumps batches; this copies the current values across
    (create-or-get, so repeated collection is idempotent for gauges and
    overwrites counters with the live totals).  Restart and hang counters
    are forced to exist for every worker -- a report that says ``0`` beats
    one that silently omits the healthy shards -- and a health control
    plane, when attached, lands under its usual ``health.*`` names.
    """
    registry = registry if registry is not None else MetricsRegistry()
    _copy_instruments(runtime.registry, registry)
    registry.gauge("parallel.num_workers").set(runtime.num_workers)
    for index, restarts in enumerate(runtime.worker_restarts()):
        registry.counter(f"parallel.worker{index}.restarts").set(restarts)
    for index, hangs in enumerate(runtime.worker_hangs()):
        registry.counter(f"parallel.worker{index}.hangs").set(hangs)
    health = getattr(runtime, "health", None)
    if health is not None:
        health.to_registry(registry)
    return registry


def collect_recovery(recovery, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register a :class:`~repro.faults.resilient.RecoveryStats` snapshot
    under ``recovery.*`` names."""
    registry = registry if registry is not None else MetricsRegistry()
    for key, value in recovery.as_dict().items():
        registry.counter(f"recovery.{key}").set(value)
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

    ``run`` re-binds ``hierarchy.access`` and the backend's entry points
    when it is called, so instance-attribute shims installed here cover the
    whole replay; the simulation itself is untouched (same SimResult).
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
