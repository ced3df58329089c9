"""Metric collection: one place that knows where every counter lives.

Historically each consumer walked the component graph itself -- the
profiler built one ad-hoc ``Dict[str, int]``, benchmarks another, and the
CLI a third.  This module centralizes that walk: :func:`collect_system`
samples a finished :class:`~repro.sim.system.SecureSystem` into a
:class:`~repro.observability.metrics.MetricsRegistry` under stable
dot-separated names, and :func:`system_counters` flattens the registry
back into the legacy profiler key set (the part after the first dot), so
existing artifacts keep their schema.

Collection is snapshot-style: components keep owning their cheap inline
counters (dataclass fields, bare attributes -- the hot path never touches
a registry), and the registry is populated by copying after the run.
"""

from __future__ import annotations

from typing import Dict, Optional

from .metrics import CycleHistogram, MetricsRegistry
from .recorder import InMemoryRecorder
from .spans import is_span


def _treetop_flushes(registry: MetricsRegistry, prefix: str, oram) -> None:
    """Export ``{prefix}.treetop_flushes`` / ``.treetop_flushed_buckets``
    when the controller's tree carries a treetop cache."""
    cache = getattr(getattr(oram, "tree", None), "treetop", None)
    if cache is None:
        return
    registry.counter(f"{prefix}.treetop_flushes").set(cache.flushes)
    registry.counter(f"{prefix}.treetop_flushed_buckets").set(cache.flushed_buckets)


def collect_system(system, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Sample every component counter of a finished system run.

    Registry names group by component: ``cache.*``, ``backend.*``,
    ``oram.*``, ``pipeline.*``, ``bank.*``, ``faults.*``, ``scheme.*``.
    The flat legacy key of each metric is the name after the first dot.
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

    oram = getattr(backend, "oram", None)
    if oram is not None:
        registry.gauge("oram.stash_max_occupancy").set(oram.stash.max_occupancy)
        registry.counter("oram.stash_soft_overflows").set(oram.stash_soft_overflows)
        registry.counter("oram.real_path_accesses").set(oram.real_accesses)
        registry.counter("oram.dummy_path_accesses").set(oram.dummy_accesses)

    # Per-phase pipeline attribution: a single controller exposes its
    # pipeline directly; a sharded bank sums over its channels.
    pipeline = getattr(backend, "pipeline", None)
    if pipeline is not None:
        for name, cycles in pipeline.breakdown().items():
            registry.counter(f"pipeline.phase_{name}_cycles").set(cycles)
    elif hasattr(backend, "phase_breakdown"):
        for name, cycles in backend.phase_breakdown().items():
            registry.counter(f"pipeline.phase_{name}_cycles").set(cycles)
        registry.gauge("bank.num_shards").set(backend.num_shards)
        health = getattr(backend, "health", None)
        if health is not None:
            health.to_registry(registry)

    # Memory-interconnect occupancy: per-channel gauges/counters for a
    # single controller, per-shard prefixes for a sharded bank.  The
    # treetop flush counter lives on the functional tree (write-back is a
    # tree-side event) but is exported under the interconnect namespace
    # next to its hit/bytes-saved siblings.
    interconnect = getattr(backend, "interconnect", None)
    if interconnect is not None:
        interconnect.to_registry(registry)
        _treetop_flushes(registry, "interconnect", getattr(backend, "oram", None))
    elif hasattr(backend, "shards"):
        for index, shard in enumerate(backend.shards):
            shard_interconnect = getattr(shard, "interconnect", None)
            if shard_interconnect is not None:
                shard_interconnect.to_registry(
                    registry, prefix=f"interconnect.shard{index}"
                )
                _treetop_flushes(
                    registry,
                    f"interconnect.shard{index}",
                    getattr(shard, "oram", None),
                )

    injector = getattr(backend, "injector", None)
    if injector is not None:
        registry.counter("faults.transient_faults").set(stats.transient_faults)
        registry.counter("faults.fault_retries").set(stats.fault_retries)
        registry.counter("faults.fault_delay_cycles").set(stats.fault_delay_cycles)
        registry.counter("faults.forced_evictions").set(stats.forced_evictions)
        registry.counter("faults.injected_faults").set(injector.stats.total_injected)

    scheme = getattr(backend, "scheme", None)
    if scheme is not None:
        registry.counter("scheme.merges").set(scheme.stats.merges)
        registry.counter("scheme.breaks").set(scheme.stats.breaks)
        registry.counter("scheme.prefetched_blocks").set(scheme.stats.prefetched_blocks)
        registry.counter("scheme.prefetch_hits").set(scheme.stats.prefetch_hits)
        registry.counter("scheme.prefetch_misses").set(scheme.stats.prefetch_misses)
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


def system_counters(system) -> Dict[str, int]:
    """Legacy flat counter dict (the profiler/benchmark artifact schema).

    Key = registry name after the first dot; the key set is exactly what
    ``Profiler._collect_counters`` used to hand-build.
    """
    counters: Dict[str, int] = {}
    for instrument in collect_system(system):
        if isinstance(instrument, CycleHistogram):
            continue
        counters[instrument.name.split(".", 1)[1]] = instrument.value
    return counters
