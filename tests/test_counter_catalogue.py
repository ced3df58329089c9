"""One counter catalogue, one walk.

Every counter-bearing component of an ORAM controller declares its counters
once and :meth:`ORAMBackend.counters` is the only walk over them; the result
fold, the backend checkpoint and the metrics registry all read that one
dict.  These tests make the property durable:

* **round trip** (hypothesis) -- ``restore(dump(b))`` walks to the same dict
  as ``b`` for any seeded mix of demand / prefetch / dirty write-back / idle
  gaps over {flat, channel x4} x treetop {0, 4} x faults x {plain, periodic};
* **completeness** -- every ``int`` attribute reachable from a driven
  controller whose value moved is in the walk (or on a short named allowlist
  of scheduler scratch), so an undeclared counter fails here;
* **differential** -- the hand-kept enumerations this PR deleted
  (``snapshot_shard_stats``, the fold over its shape, ``collect_system``'s
  walk of the live component graph, the interconnects' ``summary`` /
  ``to_registry`` / ``state_dict`` bodies, the hand-written checkpoint
  section, ``SimResult.delta``'s name list) live on below as the oracle and
  a 97-cell matrix compares ``repr(SimResult)``, ``metrics().to_dict()``,
  ``interconnect.summary()`` and the checkpoint section against them;
* **compatibility** -- the two flat-model backend checkpoints written at
  the parent commit (``tests/data/parent_backend_checkpoint_*.json``) restore
  here to what the parent restored and the channel-model one is refused (its
  tile-per-channel geometry is not the striped layout's), a document with a
  missing or non-integer counter raises ``CheckpointError`` and an unknown
  key is ignored;
* the two bugs the walk fixed: flat-interconnect counters survive a restore,
  and the first Equation 1 window after one is not fed the whole history;
* **above the bank** (last three sections) -- the serving front end, the
  health plane and the worker runtime count the same way: every declared
  counter reaches its documented registry name, an integer that moves
  undeclared fails, and the reported names and values equal what the
  deleted live registries held (the ``golden_serve_*`` dumps, a recorded
  runtime scenario, the plane's old event-path mirror as ``MirroredPlane``).

The fixtures are frozen artifacts of the parent commit (f7db917), written
with its sources on the path: for each entry of ``FIXTURES``,
``build_controller(**build)`` driven by ``drive(source, seed=29, steps=300)``,
dumped with ``dump_backend_state(source, {"last_seq": 4, "replies": [[4, [7,
9]]]})`` (the ``document``) and restored into a second fresh controller whose
``restored_view`` is the ``parent_restored`` entry.
"""

import copy
import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.controller.sharded import build_bank, build_shard_backend
from repro.faults import FaultConfig, FaultInjector
from repro.health import HealthPolicy
from repro.memory.backend import BackendStats
from repro.observability.metrics import MetricsRegistry
from repro.oram.checkpoint import (
    CheckpointError,
    dump_backend_state,
    restore_backend_state,
)
from repro.sim.results import SimResult
from repro.sim.system import SecureSystem
from repro.workloads.synthetic import locality_mix_trace

DATA = Path(__file__).parent / "data"
FOOTPRINT = 512


# ------------------------------------------------------------------ builders
def system_config(model="flat", treetop=0):
    base = SystemConfig()
    dram = base.dram
    if model == "channel":
        dram = dataclasses.replace(dram, model="channel", num_channels=4)
    return dataclasses.replace(
        base, dram=dram, oram=dataclasses.replace(base.oram, treetop_levels=treetop)
    )


def fault_injector():
    return FaultInjector(FaultConfig(seed=5, transient_rate=0.03, delay_rate=0.05))


def build_controller(model="flat", treetop=0, faults=False, periodic=False, scheme="dyn"):
    return build_shard_backend(
        scheme,
        FOOTPRINT,
        system_config(model, treetop),
        0,
        1,
        periodic=periodic,
        fault_injector=fault_injector() if faults else None,
    )


def drive(backend, seed, steps=240):
    """A seeded mix of demand reads/writes, prefetches, clean and dirty
    evictions and idle gaps, with enough sequential runs for ``dyn`` to
    merge.  Returns the cycle the mix ended at."""
    rng = random.Random(seed)
    blocks = backend.num_blocks
    now = 0
    addr = 0
    for _ in range(steps):
        now += rng.choice((0, 0, 0, 7, 40, 6_000))
        addr = (addr + 1) % blocks if rng.random() < 0.6 else rng.randrange(blocks)
        kind = rng.random()
        if kind < 0.6:
            done, _ = backend.demand_access(addr, now, rng.random() < 0.3)
            now = max(now, done)
        elif kind < 0.8:
            backend.prefetch_access(addr, now)
        else:
            backend.evict_line(addr, rng.random() < 0.7, now)
    return now


# ==================================================================== oracles
# The parent commit's hand-kept enumerations, verbatim but for reading live
# objects through plain attribute access (so they run at both commits).
BACKEND_STAT_FIELDS = (
    "demand_requests",
    "prefetch_requests",
    "write_accesses",
    "memory_accesses",
    "dummy_accesses",
    "posmap_accesses",
    "busy_cycles",
    "transient_faults",
    "fault_retries",
    "fault_delay_cycles",
    "forced_evictions",
)
SCHEME_STAT_FIELDS = (
    "merges",
    "breaks",
    "prefetched_blocks",
    "prefetch_hits",
    "prefetch_misses",
)
BACKEND_RESULT_FIELDS = BACKEND_STAT_FIELDS[:7]
FAULT_EXTRA_FIELDS = BACKEND_STAT_FIELDS[7:]
DELTA_ADDITIVE = (
    "cycles",
    "trace_entries",
    "l1_hits",
    "llc_hits",
    "llc_misses",
    "demand_requests",
    "prefetch_requests",
    "write_accesses",
    "memory_accesses",
    "dummy_accesses",
    "posmap_accesses",
    "busy_cycles",
    "merges",
    "breaks",
    "prefetched_blocks",
    "prefetch_hits",
    "prefetch_misses",
)
FAULT_STAT_FIELDS = (
    "path_reads",
    "memory_accesses",
    "bitflips",
    "replays",
    "transients",
    "delays",
    "delay_cycles",
    "snapshots",
)


def oracle_fault_stats(stats):
    out = {name: getattr(stats, name) for name in FAULT_STAT_FIELDS}
    out["total_injected"] = stats.bitflips + stats.replays + stats.transients + stats.delays
    return out


def oracle_channel_reports(interconnect):
    """What each channel of the gang reports, written out: the lockstep
    bank/bus state, plus what its bus carried -- every path the controller
    charged occupies the bus for the burst (``T - latency``) and crosses it
    with the channel's stripe of the off-chip bucket-levels."""
    gang = interconnect.gang
    channels = interconnect.num_channels
    paths = interconnect.streamed_paths + interconnect.untracked_paths
    burst = interconnect.path_cycles - interconnect.dram.latency_cycles
    whole, spare = divmod(interconnect.bucket_bytes, channels)
    return [
        {
            "bus_free": gang.bus_free,
            "bank_free": {str(k): v for k, v in gang.bank_free.items()},
            "open_row": {str(k): v for k, v in gang.open_row.items()},
            "requests": gang.row_hits + gang.row_misses,  # one per array access
            "row_hits": gang.row_hits,
            "row_misses": gang.row_misses,
            "bytes_moved": paths * interconnect.offchip_levels * (whole + (index < spare)),
            "busy_cycles": paths * burst,
            "bank_wait_cycles": gang.bank_wait_cycles,
        }
        for index in range(channels)
    ]


def oracle_treetop(interconnect):
    """``(treetop_hits, treetop_bytes_saved)``: every charged path --
    streamed or untracked -- skips the ``k`` pinned bucket-levels."""
    hits = interconnect.treetop_levels * (
        interconnect.streamed_paths + interconnect.untracked_paths
    )
    return hits, hits * interconnect.bucket_bytes


def oracle_interconnect_summary(interconnect):
    treetop_hits, treetop_bytes_saved = oracle_treetop(interconnect)
    if interconnect.model == "flat":
        return {
            "channels": 1,
            "streamed_paths": interconnect.streamed_paths,
            "untracked_paths": interconnect.untracked_paths,
            "treetop_hits": treetop_hits,
            "treetop_bytes_saved": treetop_bytes_saved,
        }
    reports = oracle_channel_reports(interconnect)
    streamed = interconnect.streamed_cycles_total
    return {
        "channels": interconnect.num_channels,
        "streamed_paths": interconnect.streamed_paths,
        "untracked_paths": interconnect.untracked_paths,
        "streamed_cycles": streamed,
        "row_hits": sum(c["row_hits"] for c in reports),
        "row_misses": sum(c["row_misses"] for c in reports),
        "bank_wait_cycles": sum(c["bank_wait_cycles"] for c in reports),
        "hidden_latency_cycles": interconnect.hidden_latency_cycles,
        "early_return_cycles": interconnect.early_return_cycles,
        "treetop_hits": treetop_hits,
        "treetop_bytes_saved": treetop_bytes_saved,
        "path_cycles": interconnect.path_cycles,
        "stream_efficiency": (
            interconnect.streamed_paths * interconnect.path_cycles / streamed
            if streamed
            else 1.0
        ),
    }


def oracle_interconnect_to_registry(interconnect, registry, prefix):
    registry.gauge(f"{prefix}.path_cycles").set(interconnect.path_cycles)
    if interconnect.model != "flat":
        registry.gauge(f"{prefix}.num_channels").set(interconnect.num_channels)
    registry.counter(f"{prefix}.streamed_paths").set(interconnect.streamed_paths)
    registry.counter(f"{prefix}.untracked_paths").set(interconnect.untracked_paths)
    treetop_hits, treetop_bytes_saved = oracle_treetop(interconnect)
    registry.counter(f"{prefix}.treetop_hits").set(treetop_hits)
    registry.counter(f"{prefix}.treetop_bytes_saved").set(treetop_bytes_saved)
    if interconnect.model == "flat":
        return
    if interconnect.streamed_paths:
        registry.histogram(f"{prefix}.path_stream_cycles").record(
            interconnect.streamed_cycles_total // interconnect.streamed_paths
        )
    registry.gauge(f"{prefix}.stream_efficiency").set(
        round(oracle_interconnect_summary(interconnect)["stream_efficiency"], 6)
    )
    registry.counter(f"{prefix}.hidden_latency_cycles").set(
        interconnect.hidden_latency_cycles
    )
    registry.counter(f"{prefix}.early_return_cycles").set(
        interconnect.early_return_cycles
    )
    # The occupancy horizon is the end of the last *charged* path (streamed,
    # untracked in a train, or a periodic slot dummy), because every charged
    # path's burst is in busy_cycles.
    horizon = interconnect.last_completion
    for index, channel in enumerate(oracle_channel_reports(interconnect)):
        name = f"{prefix}.channel{index}"
        registry.counter(f"{name}.requests").set(channel["requests"])
        registry.counter(f"{name}.row_hits").set(channel["row_hits"])
        registry.counter(f"{name}.row_misses").set(channel["row_misses"])
        registry.counter(f"{name}.bytes_moved").set(channel["bytes_moved"])
        registry.counter(f"{name}.busy_cycles").set(channel["busy_cycles"])
        registry.counter(f"{name}.bank_wait_cycles").set(channel["bank_wait_cycles"])
        occupancy = channel["busy_cycles"] / horizon if horizon else 0.0
        registry.gauge(f"{name}.bus_occupancy_pct").set(round(100.0 * occupancy, 3))


def oracle_interconnect_state(interconnect):
    if interconnect.model == "flat":
        return {}
    layout = interconnect.layout
    treetop_hits, treetop_bytes_saved = oracle_treetop(interconnect)
    return {
        "geometry": {
            "layout": "striped",
            "levels": layout.levels,
            "channels": interconnect.num_channels,
            "banks": layout.num_banks,
            "subtree_levels": layout.subtree_levels,
            "treetop_levels": interconnect.treetop_levels,
            "page_policy": interconnect.dram.page_policy,
        },
        "streamed_paths": interconnect.streamed_paths,
        "untracked_paths": interconnect.untracked_paths,
        "streamed_cycles_total": interconnect.streamed_cycles_total,
        "last_completion": interconnect.last_completion,
        "hidden_latency_cycles": interconnect.hidden_latency_cycles,
        "early_return_cycles": interconnect.early_return_cycles,
        "treetop_hits": treetop_hits,
        "treetop_bytes_saved": treetop_bytes_saved,
        "channels": oracle_channel_reports(interconnect),
    }


def oracle_snapshot(shard):
    """The parent's ``snapshot_shard_stats``."""
    hierarchy = shard.posmap_hierarchy
    interconnect = shard.interconnect
    return {
        "stats": {name: getattr(shard.stats, name) for name in BACKEND_STAT_FIELDS},
        "scheme_stats": {
            name: getattr(shard.scheme.stats, name) for name in SCHEME_STAT_FIELDS
        },
        "stash_max_occupancy": shard.oram.stash.max_occupancy,
        "stash_soft_overflows": shard.oram.stash_soft_overflows,
        "posmap_lookups": hierarchy.lookups,
        "posmap_cache_hits": hierarchy.cache_hits,
        "phase_cycles": dict(shard.pipeline.phase_cycles),
        "busy_until": shard.busy_until,
        "fault_model": shard.injector is not None,
        "injected": (
            oracle_fault_stats(shard.injector.stats)
            if shard.injector is not None
            else None
        ),
        "interconnect": (
            oracle_interconnect_summary(interconnect)
            if interconnect.model != "flat"
            else None
        ),
    }


def oracle_snapshot_shards(backend):
    """The parent's ``snapshot_shards``: a shared injector reports once."""
    snapshots = []
    reported = set()
    for shard in backend.shards:
        snapshot = oracle_snapshot(shard)
        if id(shard.injector) in reported:
            snapshot["injected"] = None
        reported.add(id(shard.injector))
        snapshots.append(snapshot)
    return snapshots


def _oracle_summed(dicts, assigned=""):
    total = {}
    for counters in dicts:
        for name, value in (counters or {}).items():
            total[name] = value if name == assigned else total.get(name, 0) + value
    return total


def oracle_fold(result, snapshots, bank):
    """The parent's ``fold_shard_snapshots``."""
    for name in BACKEND_RESULT_FIELDS:
        setattr(result, name, sum(snap["stats"][name] for snap in snapshots))
    for name in SCHEME_STAT_FIELDS:
        setattr(result, name, sum(snap["scheme_stats"][name] for snap in snapshots))
    result.stash_max_occupancy = max(snap["stash_max_occupancy"] for snap in snapshots)
    lookups = sum(snap["posmap_lookups"] for snap in snapshots)
    hits = sum(snap["posmap_cache_hits"] for snap in snapshots)
    result.posmap_cache_hit_rate = hits / lookups if lookups else 0.0
    extra = result.extra
    if bank:
        extra["num_shards"] = len(snapshots)
    extra["stash_soft_overflows"] = sum(
        snap["stash_soft_overflows"] for snap in snapshots
    )
    for name, cycles in _oracle_summed([s["phase_cycles"] for s in snapshots]).items():
        extra[f"phase_{name}_cycles"] = cycles
    if any(snap.get("fault_model") for snap in snapshots):
        for name in FAULT_EXTRA_FIELDS:
            extra[name] = sum(snap["stats"][name] for snap in snapshots)
    for name, value in _oracle_summed([s.get("injected") for s in snapshots]).items():
        extra[f"injected_{name}"] = value
    summaries = [s["interconnect"] for s in snapshots if s.get("interconnect")]
    folded = _oracle_summed(summaries, assigned="channels")
    if summaries:  # T is a per-controller constant, the ratio is over the sums
        folded["path_cycles"] = summaries[0]["path_cycles"]
        streamed = folded["streamed_cycles"]
        folded["stream_efficiency"] = (
            folded["streamed_paths"] * folded["path_cycles"] / streamed
            if streamed
            else 1.0
        )
    for name, value in folded.items():
        extra[f"interconnect_{name}"] = value
    return result


def oracle_collect_result(backend, result):
    """The parent's ``SecureSystem._collect`` after the core-side fields."""
    snapshots = oracle_snapshot_shards(backend)
    if not snapshots:
        for name in BACKEND_RESULT_FIELDS:
            setattr(result, name, getattr(backend.stats, name))
        return result
    return oracle_fold(result, snapshots, bank=backend.bank_width is not None)


def oracle_delta(final, start):
    """The parent's ``SimResult.delta`` with its 17-name list."""
    out = SimResult(
        workload=final.workload, scheme=final.scheme, cycles=0, trace_entries=0
    )
    for name in DELTA_ADDITIVE:
        setattr(out, name, getattr(final, name) - getattr(start, name))
    out.stash_max_occupancy = final.stash_max_occupancy
    out.posmap_cache_hit_rate = final.posmap_cache_hit_rate
    out.extra = dict(final.extra)
    return out


def oracle_collect_system(system):
    """The parent's ``collect_system``: a second walk of the live graph."""
    registry = MetricsRegistry()
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
        for name, cycles in shard.pipeline.phase_cycles.items():
            registry.counter(f"pipeline.phase_{name}_cycles").inc(cycles)
        for name in SCHEME_STAT_FIELDS:
            registry.counter(f"scheme.{name}").inc(getattr(shard.scheme.stats, name))
    width = backend.bank_width
    for index, shard in enumerate(shards):
        prefix = "interconnect" if width is None else f"interconnect.shard{index}"
        oracle_interconnect_to_registry(shard.interconnect, registry, prefix)
    if width is not None:
        registry.gauge("bank.num_shards").set(width)
        if backend.health is not None:
            for instrument in backend.health.registry:
                if not instrument.name.startswith("health."):
                    continue
                if instrument.kind == "gauge":
                    registry.gauge(instrument.name).set(instrument.value)
                else:
                    registry.counter(instrument.name).set(instrument.value)
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
            sum(
                oracle_fault_stats(injector.stats)["total_injected"]
                for injector in injectors.values()
            )
        )
    return registry


def oracle_backend_section(backend):
    """The parent's hand-written ``"backend"`` checkpoint section.  Its two
    shadow counters read the primary ones they always equalled: a pipeline
    request is one real path access, a PosMap block access one PosMap path
    the backend counted."""
    hierarchy = backend.posmap_hierarchy
    injector = backend.injector
    return {
        "busy_until": backend.busy_until,
        "stats": {name: getattr(backend.stats, name) for name in BACKEND_STAT_FIELDS},
        "scheme_stats": {
            name: getattr(backend.scheme.stats, name) for name in SCHEME_STAT_FIELDS
        },
        "posmap_hierarchy": {
            "lookups": hierarchy.lookups,
            "posmap_block_accesses": backend.stats.posmap_accesses,
            "cache_hits": hierarchy.cache_hits,
        },
        "stash_max_occupancy": backend.oram.stash.max_occupancy,
        "phase_cycles": dict(backend.pipeline.phase_cycles),
        "pipeline_requests": backend.oram.real_accesses,
        "interconnect": oracle_interconnect_state(backend.interconnect),
        "injector": oracle_fault_stats(injector.stats) if injector is not None else None,
    }


def restored_view(backend):
    """What a restore must bring back, in the parent's own shapes (the
    fixtures record this view of a parent-restored backend)."""
    return {
        "snapshot": oracle_snapshot(backend),
        "section": oracle_backend_section(backend),
        "oram_counters": [
            backend.oram.real_accesses,
            backend.oram.dummy_accesses,
            backend.oram.stash_soft_overflows,
        ],
    }


# ================================================================ round trip
CELLS = [
    (model, treetop, faults, periodic)
    for model in ("flat", "channel")
    for treetop in (0, 4)
    for faults in (False, True)
    for periodic in (False, True)
]


def cell_id(cell):
    model, treetop, faults, periodic = cell
    return (
        f"{model}-k{treetop}-{'faults' if faults else 'clean'}-"
        f"{'periodic' if periodic else 'plain'}"
    )


class TestRoundTrip:
    """``restore(dump(b))`` walks to the same dict as ``b``."""

    @pytest.mark.parametrize("cell", CELLS, ids=cell_id)
    @given(seed=st.integers(0, 2**16), steps=st.integers(0, 160))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_restore_of_dump_walks_to_the_same_dict(self, cell, seed, steps):
        source = build_controller(*cell)
        drive(source, seed, steps)
        walk = source.counters()
        assert json.loads(json.dumps(walk)) == walk  # plain data
        payload = dump_backend_state(source, {"last_seq": 3})
        assert json.loads(payload)["backend"] == walk  # the section *is* the walk
        clone = build_controller(*cell)
        assert restore_backend_state(clone, payload) == {"last_seq": 3}
        assert clone.counters() == walk
        # load_counters alone restores every section but the one the ORAM
        # document owns (one source of truth for those counters)
        # -- and the two stats totals derived from the ORAM's counters
        # follow that document too
        other = build_controller(*cell)
        fresh = other.counters()
        other.load_counters(copy.deepcopy(walk))
        stats = dict(walk["stats"])
        stats["dummy_accesses"] = fresh["oram"]["dummy_accesses"]
        stats["memory_accesses"] += (
            fresh["oram"]["real_accesses"] - walk["oram"]["real_accesses"]
        )
        assert other.counters() == {**walk, "stats": stats, "oram": fresh["oram"]}
        # ... and the restored controller keeps working
        clone.demand_access(1, clone.busy_until, False)
        clone.oram.check_invariants()

    def test_flat_counters_used_to_be_dropped(self):
        """The bug in one cell: 500 accesses at treetop 4 on the default
        flat model, then checkpoint -> restore."""
        source = build_controller("flat", 4)
        for index in range(500):
            source.demand_access(index % FOOTPRINT, source.busy_until, index % 5 == 0)
        clone = build_controller("flat", 4)
        restore_backend_state(clone, dump_backend_state(source))
        summary = clone.interconnect.summary()
        assert summary == source.interconnect.summary()
        assert summary["streamed_paths"] == 500
        assert summary["untracked_paths"] > 0
        assert summary["treetop_hits"] == 4 * (500 + summary["untracked_paths"])
        assert summary["treetop_bytes_saved"] > 0


# ============================================================== completeness
#: integer attributes that move but are scheduler scratch, not counters
SCRATCH = {
    # the Equation 1 clock: restored *from* busy_until, never stored
    ("pipeline", "last_request_cycle"),
    # the periodic grid cursor: derived from busy_until on restore (the first
    # grid point >= busy_until + Oint), never stored
    ("backend", "_next_slot"),
    # the last streamed path's read-done cycle: handed out by the train that
    # streamed it, never read by a later one
    ("interconnect", "ready"),
}


def _int_attributes(obj):
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    return {
        name: getattr(obj, name)
        for name in names
        if type(getattr(obj, name, None)) is int
    }


def _components(backend):
    """name -> (object, where its counters must show up in the walk)."""
    walk = backend.counters
    parts = {
        "backend": (backend, lambda: walk()),
        "stats": (backend.stats, lambda: walk()["stats"]),
        "scheme.stats": (backend.scheme.stats, lambda: walk()["scheme_stats"]),
        "posmap_hierarchy": (
            backend.posmap_hierarchy,
            lambda: walk()["posmap_hierarchy"],
        ),
        "oram": (backend.oram, lambda: walk()["oram"]),
        "oram.stash": (
            backend.oram.stash,
            lambda: {"max_occupancy": walk()["stash_max_occupancy"]},
        ),
        "pipeline": (backend.pipeline, lambda: {}),  # counts nothing itself
        "interconnect": (backend.interconnect, lambda: walk()["interconnect"]),
    }
    if backend.injector is not None:
        parts["injector.stats"] = (backend.injector.stats, lambda: walk()["injector"])
    if backend.interconnect.model == "channel":  # one state, reported C times
        parts["interconnect.gang"] = (
            backend.interconnect.gang,
            lambda: walk()["interconnect"]["channels"][-1],
        )
    return parts


def undeclared_counters(backend, exercise):
    """(component, attribute) of every integer that moved under *exercise*
    without appearing -- with its current value -- in ``counters()``."""
    parts = _components(backend)
    before = {name: _int_attributes(obj) for name, (obj, _) in parts.items()}
    phases_before = dict(backend.pipeline.phase_cycles)
    exercise(backend)
    missing = []
    for name, (obj, section) in parts.items():
        reported = section()
        for attribute, value in _int_attributes(obj).items():
            if value == before[name].get(attribute):
                continue
            if (name, attribute) in SCRATCH:
                continue
            if reported.get(attribute) != value:
                missing.append((name, attribute))
    for phase, cycles in backend.pipeline.phase_cycles.items():
        if cycles != phases_before.get(phase):
            if backend.counters()["phase_cycles"].get(phase) != cycles:
                missing.append(("pipeline.phase_cycles", phase))
    return missing


class TestCompleteness:
    @pytest.mark.parametrize(
        "cell",
        [("flat", 0, False, False), ("channel", 4, True, False), ("flat", 4, True, True)],
        ids=cell_id,
    )
    def test_every_moved_integer_is_in_the_walk(self, cell):
        backend = build_controller(*cell)

        def exercise(backend):
            drive(backend, seed=17, steps=400)
            backend.dummy_path_access(backend.busy_until)
            backend.finalize(backend.busy_until + 50_000)

        assert undeclared_counters(backend, exercise) == []
        # the exercise really moved the interesting ones
        walk = backend.counters()
        assert walk["stats"]["demand_requests"] > 0
        assert walk["stats"]["prefetch_requests"] > 0
        assert walk["stats"]["write_accesses"] > 0
        assert walk["stats"]["posmap_accesses"] > 0
        assert walk["oram"]["real_accesses"] > 0
        assert walk["interconnect"]["untracked_paths"] > 0
        if cell[1]:
            assert walk["interconnect"]["treetop_hits"] > 0
        assert "treetop" not in walk  # one bucket store: no treetop section
        if cell[2]:
            assert walk["injector"]["memory_accesses"] > 0
            assert walk["stats"]["fault_delay_cycles"] > 0

    def test_an_undeclared_counter_is_caught(self):
        """Adding a counter without declaring it fails here, not three PRs
        later when a checkpoint or a merged result turns out to lack it."""
        backend = build_controller()

        def exercise(backend):
            drive(backend, seed=3, steps=40)
            backend.posmap_hierarchy.planted_walks = 7
            backend.interconnect.planted_bursts = 2

        backend.posmap_hierarchy.planted_walks = 0
        backend.interconnect.planted_bursts = 0
        assert undeclared_counters(backend, exercise) == [
            ("posmap_hierarchy", "planted_walks"),
            ("interconnect", "planted_bursts"),
        ]

    def test_stats_dataclasses_are_walked_by_their_fields(self):
        backend = build_controller(faults=True)
        walk = backend.counters()
        assert list(walk["stats"]) == [f.name for f in dataclasses.fields(BackendStats)]
        assert list(walk["scheme_stats"]) == [
            f.name for f in dataclasses.fields(backend.scheme.stats)
        ]
        assert list(walk["stats"]) == list(BACKEND_STAT_FIELDS)
        assert list(walk["scheme_stats"]) == list(SCHEME_STAT_FIELDS)


# ============================================================== differential
class ProbedSystem(SecureSystem):
    """Records, at every collection point of a run, what the parent's
    ``_collect`` would have returned from the same live state."""

    oracle_results = ()

    def _collect(self, trace, now, l1_hits, llc_hits, misses, entries_processed):
        result = super()._collect(
            trace, now, l1_hits, llc_hits, misses, entries_processed
        )
        expected = oracle_collect_result(
            self.backend,
            SimResult(
                workload=trace.name,
                scheme=self.label,
                cycles=now,
                trace_entries=entries_processed,
                l1_hits=l1_hits,
                llc_hits=llc_hits,
                llc_misses=misses,
            ),
        )
        self.oracle_results = (*self.oracle_results, expected)
        return result


def matrix_cells():
    cells = [("dram", 1, "flat", 0, False, False)]
    for scheme in ("oram", "dyn", "dyn_intvl", "oram_pre"):
        for shards in (1, 4):
            for model in ("flat", "channel"):
                for treetop in (0, 4):
                    for faults in (False, True):
                        for health in (False, True) if shards > 1 else (False,):
                            cells.append((scheme, shards, model, treetop, faults, health))
    return cells


MATRIX = matrix_cells()
TRACE = locality_mix_trace(0.8, footprint_blocks=FOOTPRINT, accesses=1_200)
WARMUP = 400


def matrix_id(cell):
    scheme, shards, model, treetop, faults, health = cell
    return (
        f"{scheme}-x{shards}-{model}-k{treetop}"
        f"{'-faults' if faults else ''}{'-health' if health else ''}"
    )


def test_the_matrix_has_97_valid_cells():
    assert len(MATRIX) == 97 and len(set(MATRIX)) == 97


@pytest.mark.parametrize("cell", MATRIX, ids=matrix_id)
def test_one_walk_reports_what_nine_enumerations_did(cell):
    scheme, shards, model, treetop, faults, health = cell
    system = ProbedSystem.build(
        scheme,
        FOOTPRINT,
        system_config(model, treetop),
        num_shards=shards,
        fault_injector=fault_injector() if faults else None,
        health_policy=HealthPolicy(window=32) if health else None,
    )
    result = system.run(TRACE, warmup_entries=WARMUP)

    # the result: same fields, same extra keys in the same order
    warmup, final = system.oracle_results
    assert repr(result) == repr(oracle_delta(final, warmup))

    # the registry: every name and value the second walk produced
    assert system.metrics().to_dict() == oracle_collect_system(system).to_dict()

    for shard in system.backend.shards:
        # the interconnect's scalar view
        assert shard.interconnect.summary() == oracle_interconnect_summary(
            shard.interconnect
        )
        # the walk carries everything the old snapshot did ...
        walk = shard.counters()
        old = oracle_snapshot(shard)
        assert walk["stats"] == old["stats"]
        assert walk["scheme_stats"] == old["scheme_stats"]
        assert walk["phase_cycles"] == old["phase_cycles"]
        assert walk["injector"] == old["injected"]
        # ... and the checkpoint section is the hand-written one less its
        # two shadow counters, whose values the section still carries
        section = json.loads(dump_backend_state(shard))["backend"]
        for key, expected in oracle_backend_section(shard).items():
            if key == "interconnect":
                assert {name: section[key][name] for name in expected} == expected
            elif key == "pipeline_requests":
                assert key not in section
                assert section["oram"]["real_accesses"] == expected
            elif key == "posmap_hierarchy":
                assert "posmap_block_accesses" not in section[key]
                assert {
                    **section[key],
                    "posmap_block_accesses": section["stats"]["posmap_accesses"],
                } == expected
            else:
                assert section[key] == expected


# ============================================================= compatibility
FIXTURES = {
    "flat_k0": dict(model="flat", treetop=0, faults=True),
    "flat_k4": dict(model="flat", treetop=4, faults=False),
    "channel4_k4": dict(model="channel", treetop=4, faults=True),
}


def fixture_path(name):
    return DATA / f"parent_backend_checkpoint_{name}.json"


@pytest.fixture(params=sorted(FIXTURES))
def parent_fixture(request):
    return json.loads(fixture_path(request.param).read_text())


class TestCheckpointCompatibility:
    def test_parent_written_checkpoint_restores(self, parent_fixture):
        """``stats``, ``scheme_stats``, PosMap, pipeline and injector state
        come back as the parent restored them -- under the flat model.  The
        channel fixture is *refused*: its bank/row numbers and per-channel
        states belong to the tile-per-channel layout, and mean nothing
        under bucket striping."""
        backend = build_controller(**parent_fixture["build"])
        document = parent_fixture["document"]
        assert "oram" not in document["backend"]  # really the old shape
        if parent_fixture["build"]["model"] == "channel":
            assert "layout" not in document["backend"]["interconnect"]["geometry"]
            before = backend.interconnect.state_dict()
            with pytest.raises(CheckpointError, match="'layout': 'striped'"):
                restore_backend_state(backend, json.dumps(document))
            assert backend.interconnect.state_dict() == before
            # ... and without its geometry entry, by the lockstep check
            del document["backend"]["interconnect"]["geometry"]
            with pytest.raises(CheckpointError, match="lockstep"):
                restore_backend_state(backend, json.dumps(document))
            assert backend.interconnect.state_dict() == before
            return
        runtime = restore_backend_state(backend, json.dumps(document))
        assert runtime == {"last_seq": 4, "replies": [[4, [7, 9]]]}
        assert restored_view(backend) == parent_fixture["parent_restored"]
        walk = backend.counters()
        assert walk["stats"] == document["backend"]["stats"]
        assert walk["stats"]["demand_requests"] > 0
        assert walk["busy_until"] == document["backend"]["busy_until"] > 0
        # the flat model's counters are not in a parent-written document
        assert walk["interconnect"]["streamed_paths"] == 0
        backend.oram.check_invariants()
        backend.demand_access(3, backend.busy_until, True)

    def test_parent_written_documents_restore_through_the_file_api(
        self, parent_fixture, tmp_path
    ):
        from repro.oram.checkpoint import restore_backend

        path = tmp_path / "shard.json"
        path.write_text(json.dumps(parent_fixture["document"]))
        backend = build_controller(**parent_fixture["build"])
        if parent_fixture["build"]["model"] == "channel":  # refused, as above
            with pytest.raises(CheckpointError, match="geometry"):
                restore_backend(backend, str(path))
            return
        assert restore_backend(backend, str(path))["last_seq"] == 4

    @staticmethod
    def _document():
        source = build_controller("channel", 4, faults=True)
        drive(source, seed=5, steps=120)
        return source, json.loads(dump_backend_state(source))

    @pytest.mark.parametrize(
        "section, key",
        [
            ("stats", "demand_requests"),
            ("stats", "forced_evictions"),
            ("scheme_stats", "merges"),
            ("posmap_hierarchy", "cache_hits"),
            ("phase_cycles", "path_read"),
            ("injector", "transients"),
            ("interconnect", "streamed_cycles_total"),
            (None, "busy_until"),
            (None, "stash_max_occupancy"),
            (None, "stats"),
        ],
    )
    def test_missing_declared_key_is_a_checkpoint_error(self, section, key):
        source, document = self._document()
        saved = document["backend"]
        del (saved if section is None else saved[section])[key]
        with pytest.raises(CheckpointError):
            restore_backend_state(
                build_controller("channel", 4, faults=True), json.dumps(document)
            )

    def test_derived_values_are_not_restored(self):
        """The treetop counts and each channel's requests are derived from
        the paths and the row hits and misses: a document's copies -- here
        tampered identically on every channel, so the lockstep check passes
        -- are not read back."""
        source, document = self._document()
        saved = document["backend"]["interconnect"]
        saved["treetop_hits"] += 1_000
        saved["treetop_bytes_saved"] += 64_000
        for channel in saved["channels"]:
            channel["requests"] += 1_000
        backend = build_controller("channel", 4, faults=True)
        restore_backend_state(backend, json.dumps(document))
        assert backend.interconnect.state_dict() == source.interconnect.state_dict()
        assert backend.counters() == source.counters()

    def test_path_access_totals_are_derived_not_restored(self):
        """``stats.dummy_accesses`` is the ORAM's dummy count and
        ``stats.memory_accesses`` the PosMap, real and padding paths: a
        document's copies of the two are not read back.  A document written
        before padding was counted apart (no ``padding_accesses``) yields
        the padding from its ``memory_accesses``."""
        source, document = self._document()
        for _ in range(3):
            source.dummy_path_access(source.busy_until)
        stats = source.stats
        assert stats.dummy_accesses == source.oram.dummy_accesses >= 3
        assert stats.memory_accesses == (
            stats.posmap_accesses + source.oram.real_accesses + 3
        )
        document = json.loads(dump_backend_state(source))
        saved = document["backend"]
        assert saved["padding_accesses"] == 3
        saved["stats"]["dummy_accesses"] += 1_000
        saved["stats"]["memory_accesses"] += 1_000
        backend = build_controller("channel", 4, faults=True)
        restore_backend_state(backend, json.dumps(document))
        assert backend.counters() == source.counters()
        # the parent's shape: memory_accesses held the padding
        del saved["padding_accesses"]
        saved["stats"]["memory_accesses"] -= 1_000
        older = build_controller("channel", 4, faults=True)
        restore_backend_state(older, json.dumps(document))
        assert older.counters() == source.counters()
        saved["stats"]["memory_accesses"] = 0
        with pytest.raises(CheckpointError, match="padding"):
            restore_backend_state(
                build_controller("channel", 4, faults=True), json.dumps(document)
            )

    @pytest.mark.parametrize("section, key", [("counters", "stash_soft_overflows")])
    def test_oram_counters_have_one_source_the_oram_document(self, section, key):
        """``oram`` rides in the backend section for the fold and the
        registry, but a restore reads it from the ORAM document only: that
        copy is validated, the other cannot override it (and an older
        document's ``treetop`` section is not read at all)."""
        source, document = self._document()
        document["backend"]["oram"]["stash_soft_overflows"] += 1_000
        document["backend"]["treetop"] = {"flushes": "many"}
        backend = build_controller("channel", 4, faults=True)
        restore_backend_state(backend, json.dumps(document))
        assert backend.counters() == source.counters()
        del document["oram"][section][key]
        with pytest.raises(CheckpointError):
            restore_backend_state(
                build_controller("channel", 4, faults=True), json.dumps(document)
            )

    @pytest.mark.parametrize("bad", ["12", 1.5, None, True, [3]])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("stats", "busy_cycles"),
            ("scheme_stats", "breaks"),
            ("posmap_hierarchy", "lookups"),
            ("phase_cycles", "posmap"),
            ("injector", "delays"),
            ("interconnect", "untracked_paths"),
            (None, "busy_until"),
        ],
    )
    def test_non_integer_counter_is_a_checkpoint_error(self, section, key, bad):
        source, document = self._document()
        saved = document["backend"]
        (saved if section is None else saved[section])[key] = bad
        with pytest.raises(CheckpointError):
            restore_backend_state(
                build_controller("channel", 4, faults=True), json.dumps(document)
            )

    def test_non_integer_channel_counter_is_a_checkpoint_error(self):
        source, document = self._document()
        document["backend"]["interconnect"]["channels"][2]["row_hits"] = "many"
        with pytest.raises(CheckpointError):
            restore_backend_state(
                build_controller("channel", 4, faults=True), json.dumps(document)
            )

    def test_unknown_keys_are_ignored_never_setattr(self):
        """The tolerance that lets the parent read our documents, and the
        reason a document cannot plant attributes on a controller."""
        source, document = self._document()
        saved = document["backend"]
        saved["from_the_future"] = {"x": 1}
        saved["stats"]["planted"] = 41
        saved["scheme_stats"]["__class__"] = 0
        saved["posmap_hierarchy"]["cache_entries"] = 0  # a real attribute, not a counter
        saved["phase_cycles"]["planted_phase"] = 9
        saved["injector"]["enabled"] = 0
        saved["interconnect"]["path_cycles"] = 1  # configuration: carried, never loaded
        saved["interconnect"]["planted"] = 5
        saved["interconnect"]["channels"][0]["planted"] = 5
        saved["oram"]["rng"] = 3
        saved["treetop"] = {"levels": 1}  # an older document's section
        backend = build_controller("channel", 4, faults=True)
        restore_backend_state(backend, json.dumps(document))
        assert backend.counters() == source.counters()
        assert not hasattr(backend.stats, "planted")
        assert type(backend.scheme.stats) is type(source.scheme.stats)
        assert backend.posmap_hierarchy.cache_entries == source.posmap_hierarchy.cache_entries
        assert "planted_phase" not in backend.pipeline.phase_cycles
        assert not hasattr(backend.injector.stats, "enabled")
        assert backend.interconnect.path_cycles == source.interconnect.path_cycles
        assert not hasattr(backend.interconnect, "planted")
        assert backend.oram.rng is not None and backend.oram.rng != 3
        assert backend.oram.config.treetop_levels == 4

    def test_wrong_geometry_leaves_the_interconnect_untouched(self):
        source, document = self._document()
        other = build_shard_backend(
            "dyn",
            FOOTPRINT,
            dataclasses.replace(
                system_config("channel", 4),
                dram=dataclasses.replace(
                    system_config("channel", 4).dram, num_channels=2
                ),
            ),
            0,
            1,
            fault_injector=fault_injector(),
        )
        before = other.interconnect.state_dict()
        with pytest.raises(CheckpointError, match="channels"):
            restore_backend_state(other, json.dumps(document))
        assert other.interconnect.state_dict() == before

    def test_format_versions_did_not_move(self):
        from repro.oram import checkpoint

        assert checkpoint.FORMAT_VERSION == 1
        assert checkpoint.BACKEND_FORMAT_VERSION == 1
        document = json.loads(dump_backend_state(build_controller()))
        assert document["version"] == 1 and document["oram"]["version"] == 1


# ================================================== the Equation 1 clock bug
class TestRestoredEquationOneWindow:
    def test_first_window_after_a_restore_is_not_fed_the_whole_history(self):
        """3,000 back-to-back accesses, checkpoint -> restore, then one
        1,000-request window.  With the clock left at 0 the
        restored shard's first ``on_request`` reported the whole simulated
        history as idle time and the window read ``access_rate`` ~0.25
        where the uninterrupted run reads ~0.97."""

        def run(backend, start, count):
            for index in range(start, start + count):
                backend.demand_access(
                    (index * 7) % FOOTPRINT, backend.busy_until + 40, index % 4 == 0
                )

        uninterrupted = build_controller()
        run(uninterrupted, 0, 3_000)
        restored = build_controller()
        restore_backend_state(restored, dump_backend_state(uninterrupted))
        assert restored.pipeline.last_request_cycle == restored.busy_until > 0
        policy = restored.scheme.listener
        assert policy.access_rate == 0.0  # training state resets (documented)
        run(uninterrupted, 3_000, 1_000)
        run(restored, 3_000, 1_000)
        expected = uninterrupted.scheme.listener.access_rate
        assert expected > 0.9
        assert abs(policy.access_rate - expected) < 0.05


# ================================================ consumers of the same dict
class TestConsumersReadTheSnapshot:
    def test_registry_from_a_shipped_snapshot_equals_the_live_one(self):
        """``collect_controllers`` needs nothing but the plain dicts, so
        the report is the same for snapshots a worker shipped over a queue
        (pickled here) as for the live bank."""
        import pickle

        from repro.observability import collect_controllers

        system = SecureSystem.build(
            "dyn",
            FOOTPRINT,
            system_config("channel", 4),
            num_shards=2,
            fault_injector=fault_injector(),
        )
        system.run(TRACE)
        shipped = pickle.loads(pickle.dumps(system.backend.snapshot_shards()))
        remote = collect_controllers(shipped, bank_width=2).to_dict()
        live = system.metrics().to_dict()
        assert remote == {
            name: value
            for name, value in live.items()
            if not name.startswith(("cache.", "backend."))
        }
        assert remote["interconnect.shard1.channel3.row_misses"]["value"] > 0
        assert remote["faults.injected_faults"]["value"] > 0

    def test_collecting_twice_is_idempotent(self):
        system = SecureSystem.build("dyn", FOOTPRINT, system_config("flat", 4))
        system.run(TRACE)
        registry = system.metrics()
        once = registry.to_dict()
        assert system.metrics(registry).to_dict() == once

    def test_multicore_results_carry_every_memory_side_field(self):
        """``MultiCoreSystem._collect`` copied three counters by hand and
        left merges, PosMap accesses, the stash watermark, the PosMap hit
        rate and all of ``extra`` at their defaults."""
        from repro.sim.multicore import MultiCoreSystem

        traces = [
            locality_mix_trace(0.8, footprint_blocks=FOOTPRINT, accesses=700, seed=seed)
            for seed in (3, 4)
        ]
        system = MultiCoreSystem.build("dyn", traces, SystemConfig())
        results = system.run(traces)
        stats = system.backend.stats
        for core, result in enumerate(results):
            assert result.workload.endswith(f"@core{core}")
            assert result.scheme == "shared"
            # the three fields it always set
            assert result.demand_requests == stats.demand_requests > 0
            assert result.memory_accesses == stats.memory_accesses
            assert result.dummy_accesses == stats.dummy_accesses
            # ... and the ones it left at zero
            assert result.posmap_accesses == stats.posmap_accesses > 0
            assert result.busy_cycles == stats.busy_cycles > 0
            scheme_stats = system.backend.scheme.stats
            assert result.merges == scheme_stats.merges
            assert result.prefetched_blocks == scheme_stats.prefetched_blocks > 0
            assert result.stash_max_occupancy == system.backend.oram.stash.max_occupancy > 0
            assert 0.0 < result.posmap_cache_hit_rate <= 1.0
            assert result.extra["phase_path_read_cycles"] > 0
        expected = oracle_collect_result(
            system.backend, dataclasses.replace(results[0], extra={})
        )
        assert repr(results[0]) == repr(expected)

    def test_delta_differences_every_int_field_but_the_watermark(self):
        rng = random.Random(4)
        int_fields = [
            f.name for f in dataclasses.fields(SimResult) if f.type in (int, "int")
        ]
        assert sorted(int_fields) == sorted((*DELTA_ADDITIVE, "stash_max_occupancy"))
        start = SimResult("w", "s", 0, 0)
        final = SimResult("w", "s", 0, 0, posmap_cache_hit_rate=0.75, extra={"k": 2})
        for name in int_fields:
            setattr(start, name, rng.randrange(100))
            setattr(final, name, 100 + rng.randrange(100))
        window = SimResult.delta(final, start)
        assert repr(window) == repr(oracle_delta(final, start))
        assert window.extra == final.extra and window.extra is not final.extra


class TestAbsorb:
    def test_mapping_registers_prefixed_counters(self):
        registry = MetricsRegistry()
        assert registry.absorb({"a": 1, "b": 2}, "unit.") is registry
        assert registry.to_dict() == {
            "unit.a": {"kind": "counter", "value": 1},
            "unit.b": {"kind": "counter", "value": 2},
        }
        registry.absorb({"a": 5}, "unit.")
        assert registry.counter("unit.a").value == 5

    def test_registry_copies_every_kind(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.gauge("g").set(0.5)
        source.histogram("h").record(100)
        source.histogram("h").record(3)
        target = MetricsRegistry().absorb(source)
        assert target.to_dict() == source.to_dict()
        source.histogram("h").record(9)
        assert target.histogram("h").total == 2  # a copy, not an alias
        assert MetricsRegistry().absorb(source, "x.").to_dict() == {
            f"x.{name}": value for name, value in source.to_dict().items()
        }

    def test_selection_of_instruments(self):
        source = MetricsRegistry()
        source.counter("health.a").inc()
        source.counter("parallel.b").inc()
        picked = MetricsRegistry().absorb(
            i for i in source if i.name.startswith("health.")
        )
        assert [i.name for i in picked] == ["health.a"]


# ==================================================== checkpoint geometry
def test_every_oram_config_field_is_in_the_checkpoint_document():
    """The geometry section is derived from the dataclass, so a new
    ``ORAMConfig`` field cannot be dropped and restored at its default."""
    from repro.config import ORAMConfig
    from repro.oram.checkpoint import _oram_state_dict

    backend = build_controller(treetop=4)
    section = _oram_state_dict(backend.oram)["config"]
    assert list(section) == [f.name for f in dataclasses.fields(ORAMConfig)]
    assert ORAMConfig(**section) == backend.oram.config
    # and it is what the parent wrote by hand, key for key
    parent = json.loads(fixture_path("flat_k4").read_text())["document"]
    assert sorted(parent["oram"]["config"]) == sorted(section)


# ===================================================== above the bank: serve
# Layers 8-10 count the way layers 1-7 do: bare attributes declared once,
# one walk, names given at collection.  The oracle is what the parent's live
# registries held: the three ``golden_serve_*`` dumps, one recorded runtime
# scenario (``parent_runtime_health_metrics.json``, written at 8a2ee5e by the
# ``runtime_kill_scenario`` below with that commit's sources on the path; one
# field, ``parallel.worker0.restarts``, re-pinned 2 -> 1 when re-admission
# stopped respawning the worker; its ``health.*`` entries and
# ``parallel.worker0.fallback_batches`` deleted when the workers began to
# run the bank's per-access breaker -- the scenario's ``health.*`` now has
# to equal the bank's, a structural oracle), and the parent plane's
# event-path mirror kept here as ``MirroredPlane``.
from repro.health import HealthControlPlane, HealthState  # noqa: E402
from repro.health.breaker import CircuitBreaker  # noqa: E402
from repro.observability import collect_parallel, collect_serve  # noqa: E402
from repro.parallel.runtime import ParallelShardRuntime, _Worker  # noqa: E402
from repro.serve import ServingFrontEnd  # noqa: E402
from repro.serve.request import ServeReport, TenantReport  # noqa: E402
from repro.utils.rng import DeterministicRng  # noqa: E402
from tests.test_serve_golden import SCENARIOS  # noqa: E402

#: front-end integers that move but are event-loop state, not counts
SERVE_SCRATCH = {"_unissued", "_event_seq"}


class TestServeWalk:
    def test_fifteen_counters_declared_once(self):
        declared = ServingFrontEnd.REPORTED
        assert len(declared) == len(set(declared)) == 15
        counted = ServingFrontEnd.TENANT_COUNTERS + ServingFrontEnd.COUNTERS
        assert len(counted) == len(set(counted))
        # offered = admitted + shed; served and batches are histogram totals
        assert set(declared) - set(counted) == {"offered", "served", "batches"}
        assert set(counted) <= set(declared)
        tenant_fields = {f.name for f in dataclasses.fields(TenantReport)}
        assert set(ServingFrontEnd.TENANT_COUNTERS) <= tenant_fields
        # every total the report prints is one of them
        report_ints = {
            f.name
            for f in dataclasses.fields(ServeReport)
            if f.type == "int" and f.default == 0
        } - {"makespan_cycles", "p50_latency", "p99_latency"}
        assert report_ints <= set(declared)

    def test_every_declared_counter_reaches_the_registry(self):
        frontend, _source = SCENARIOS["overload1_shed3"]()
        frontend._tenant_counts = [TenantReport(tenant=t) for t in range(2)]
        planted = {}
        for index, name in enumerate(ServingFrontEnd.TENANT_COUNTERS):
            setattr(frontend._tenant_counts[0], name, 100 + index)
            setattr(frontend._tenant_counts[1], name, 1_000 * (index + 1))
            planted[name] = 100 + index + 1_000 * (index + 1)
        for index, name in enumerate(ServingFrontEnd.COUNTERS):
            setattr(frontend, name, 7 + 3 * index)
            planted[name] = 7 + 3 * index
        for value in (40, 900, 12):
            frontend.latency_cycles.record(value)
        frontend.batch_occupancy.record(2)
        planted["offered"] = planted["admitted"] + planted["shed"]
        planted["served"] = 3
        planted["batches"] = 1
        assert frontend.counters() == planted
        assert list(frontend.counters()) == list(ServingFrontEnd.REPORTED)
        dump = collect_serve(frontend).to_dict()
        for name, value in planted.items():
            assert dump[f"serve.{name}"] == {"kind": "counter", "value": value}

    def test_every_moved_integer_is_in_the_walk(self):
        frontend, source = SCENARIOS["overload1_shed3"]()
        before = _int_attributes(frontend)
        frontend.run(source)
        walk = frontend.counters()
        moved = {
            name
            for name, value in _int_attributes(frontend).items()
            if value != before.get(name)
        }
        assert moved - SERVE_SCRATCH <= set(walk)
        assert {"shed_queue_full", "shed_backlog", "shed_pressure"} <= moved
        for tenant in frontend._tenant_counts:
            assert set(_int_attributes(tenant)) - set(walk) == {
                "tenant", "p50_latency", "p99_latency"
            }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_walk_reports_what_the_live_registry_held(self, name):
        """Values *and* the set of names: a count-on-first-event instrument
        is there only once it counted, the forced fifteen always."""
        frontend, source = SCENARIOS[name]()
        report = frontend.run(source)
        golden = json.loads((DATA / f"golden_serve_{name}.json").read_text())
        dump = json.loads(json.dumps(collect_serve(frontend).to_dict()))
        assert dump == golden["metrics"]
        assert json.loads(json.dumps(frontend.registry.to_dict())) == dump
        # the report is the same walk
        totals = frontend.counters()
        for field in dataclasses.fields(ServeReport):
            if field.name in totals:
                assert getattr(report, field.name) == totals[field.name]
        declared = {f"serve.{counter}" for counter in ServingFrontEnd.REPORTED}
        assert declared == {
            key for key, entry in dump.items()
            if key.startswith("serve.") and entry["kind"] == "counter"
        }

    def test_a_front_end_that_never_ran_reports_zeros(self):
        frontend, _source = SCENARIOS["open4_dyn_health"]()
        dump = collect_serve(frontend).to_dict()
        assert all(
            dump[f"serve.{name}"]["value"] == 0 for name in frontend.counters()
        )
        assert "serve.queue_wait_cycles" not in dump
        assert "serve.tenant0.queue_peak" not in dump
        assert dump["health.shard3.state"]["value"] == 0


# ==================================================== above the bank: health
class MirroredPlane(HealthControlPlane):
    """The parent's event-path mirror: every ``record_*`` also updates a live
    registry (``_sync`` after a ``before = len(transitions)`` preamble)."""

    def __init__(self, num_shards, policy=None):
        super().__init__(num_shards, policy)
        self.live = MetricsRegistry()
        for index in range(num_shards):
            self.live.gauge(f"health.shard{index}.state").set(HealthState.HEALTHY.code)

    def _mirrored(self, index, event, *counters):
        breaker = self.breakers[index]
        before = len(breaker.transitions)
        result = event()
        for counter in counters:
            self.live.counter(f"health.shard{index}.{counter}").inc()
        if len(breaker.transitions) != before:
            self.live.gauge(f"health.shard{index}.state").set(breaker.state.code)
            for transition in breaker.transitions[before:]:
                self.live.counter(f"health.shard{index}.transitions").inc()
                self.live.counter(
                    "health.transitions."
                    f"{transition.previous.value}_to_{transition.state.value}"
                ).inc()
        return result

    def record_access(self, index, ok, latency_cycles=0):
        # the parent's owners called record_fallback (+ record_hard_failure
        # on a fault) while quarantined and record_probe while probing
        state = self.state(index)
        counters = ()
        if state is HealthState.QUARANTINED:
            counters = ("fallback_accesses",) + (() if ok else ("hard_failures",))
        elif state is HealthState.PROBING:
            counters = ("probes",)
        return self._mirrored(
            index,
            lambda: super(MirroredPlane, self).record_access(index, ok, latency_cycles),
            *counters,
        )

    def record_pressure(self, index):
        return self._mirrored(index, lambda: super(MirroredPlane, self).record_pressure(index))

    def record_hard_failure(self, index, reason="hard_failure"):
        return self._mirrored(
            index,
            lambda: super(MirroredPlane, self).record_hard_failure(index, reason),
            "hard_failures",
        )

    def begin_probe_if_ready(self, index):
        return self._mirrored(
            index, lambda: super(MirroredPlane, self).begin_probe_if_ready(index)
        )


def storm(plane, seed, events=600):
    """A seeded walk over every plane event: a sick shard sees access
    outcomes (and is half-opened once ready), a healthy or degraded one
    also hard failures and pressure; the breaker counts each outcome by
    its own state."""
    rng = DeterministicRng(seed)
    for _ in range(events):
        index = rng.randint(0, plane.num_shards - 1)
        roll = rng.randint(0, 99)
        if plane.state(index).padded:
            plane.record_access(index, roll >= 15)
            plane.begin_probe_if_ready(index)
        elif roll < 2:
            plane.record_hard_failure(index, "death")
        elif roll < 5:
            plane.record_pressure(index)
        else:
            plane.record_access(index, roll >= 12, latency_cycles=roll)


class TestHealthWalk:
    POLICY = HealthPolicy(
        window=8, quarantine_cooldown=4, probe_batch=4, probe_successes=2
    )

    def test_every_declared_counter_reaches_the_registry(self):
        plane = HealthControlPlane(2, self.POLICY)
        breaker = plane.breakers[1]
        for index, attr in enumerate(CircuitBreaker.COUNTERS):
            assert getattr(breaker, attr) == 0
            setattr(breaker, attr, 11 + index)
        dump = plane.to_registry().to_dict()
        for index, name in enumerate(CircuitBreaker.COUNTERS.values()):
            assert dump[f"health.shard1.{name}"] == {"kind": "counter", "value": 11 + index}
            assert f"health.shard0.{name}" not in dump  # nothing counted yet
        assert dump["health.shard0.state"] == {"kind": "gauge", "value": 0}
        assert set(CircuitBreaker.COUNTERS.values()) == {
            "hard_failures", "fallback_accesses", "probes"
        }

    def test_every_moved_breaker_integer_is_declared_or_window_state(self):
        plane = HealthControlPlane(3, self.POLICY)
        before = [_int_attributes(b) for b in plane.breakers]
        storm(plane, seed=4)
        moved = set()
        for breaker, start in zip(plane.breakers, before):
            moved |= {
                name for name, value in _int_attributes(breaker).items()
                if value != start.get(name)
            }
        public = {name for name in moved if not name.startswith("_")}
        # ``events`` is the transition clock; quarantines / readmissions are
        # counts over ``transitions``, read by ``total_*`` and ``summary()``
        assert public - {"events"} == set(CircuitBreaker.COUNTERS)

    @pytest.mark.parametrize("seed", range(6))
    def test_walk_reports_what_the_event_path_mirror_held(self, seed):
        plane = MirroredPlane(3, self.POLICY)
        storm(plane, seed)
        assert plane.total_transitions() > 0 and plane.total_readmissions() > 0
        assert plane.to_registry().to_dict() == plane.live.to_dict()
        assert plane.registry.to_dict() == plane.live.to_dict()

    def test_the_storm_reaches_every_instrument(self):
        plane = MirroredPlane(3, self.POLICY)
        storm(plane, seed=0, events=2_000)
        names = set(plane.live.to_dict())
        for suffix in ("state", "transitions", "hard_failures", "fallback_accesses", "probes"):
            assert f"health.shard0.{suffix}" in names
        assert {
            "health.transitions.healthy_to_degraded",
            "health.transitions.quarantined_to_probing",
            "health.transitions.probing_to_healthy",
            "health.transitions.probing_to_quarantined",
        } <= names


# ================================================== above the bank: parallel
KILL_POLICY = HealthPolicy(
    quarantine_cooldown=8, probe_batch=8, probe_successes=2,
    heartbeat_every=4, join_timeout_s=2.0,
)


def kill_requests():
    """The 320 requests of :func:`runtime_kill_scenario`."""
    rng = DeterministicRng(9)
    requests, now = [], 0
    for index in range(320):
        now += rng.randint(1, 40)
        requests.append((rng.randint(0, 127), now, index % 4 == 0))
    return requests


def runtime_kill_scenario(checkpoint_dir):
    """Worker 0 is dead before the first batch: reopened as a worker process
    told the hard failure, whose breaker quarantines it, serves its cooldown
    padded, half-opens, probes and re-admits it in that same process.
    Returns the collected dump with the wall-clock histograms reduced to
    their sample counts."""
    requests = kill_requests()
    with ParallelShardRuntime(
        "dyn", 128, num_workers=2, checkpoint_dir=checkpoint_dir, batch_size=16,
        max_restarts=8, health_policy=KILL_POLICY,
    ) as runtime:
        runtime.kill_worker(0)
        runtime.run(requests)
        dump = collect_parallel(runtime).to_dict()
        assert runtime.metrics().to_dict().keys() == dump.keys()
    for name, entry in dump.items():
        if name.endswith(".batch_roundtrip_us"):
            dump[name] = {"kind": entry["kind"], "total": entry["total"]}
    return dump


class TestParallelWalk:
    def stub_runtime(self, workers, health=None):
        import types

        stub = types.SimpleNamespace(
            _workers=workers, num_workers=len(workers), health=health
        )
        stub.worker_snapshots = lambda: ParallelShardRuntime.worker_snapshots(stub)
        return stub

    def test_every_declared_counter_reaches_the_registry(self):
        workers = [_Worker(0), _Worker(1)]
        for index, name in enumerate(_Worker.COUNTERS):
            assert getattr(workers[1], name) == 0
            setattr(workers[1], name, 5 + index)
        workers[1].pending = {3: ([0], []), 4: ([1], [])}
        workers[1].roundtrip_us.record(900)
        dump = collect_parallel(self.stub_runtime(workers)).to_dict()
        for index, name in enumerate(_Worker.COUNTERS):
            assert dump[f"parallel.worker1.{name}"] == {"kind": "counter", "value": 5 + index}
        # one acknowledged batch per round trip
        assert dump["parallel.worker1.batches"] == {"kind": "counter", "value": 1}
        assert dump["parallel.worker1.queue_depth"] == {"kind": "gauge", "value": 2}
        assert dump["parallel.worker1.batch_roundtrip_us"]["total"] == 1
        assert dump["parallel.num_workers"] == {"kind": "gauge", "value": 2}
        # an idle worker: the forced names at zero, nothing else
        assert {key for key in dump if key.startswith("parallel.worker0.")} == {
            "parallel.worker0.queue_depth",
            "parallel.worker0.restarts",
            "parallel.worker0.hangs",
        }

    def test_every_worker_integer_is_declared_or_a_cursor(self):
        ints = set(_int_attributes(_Worker(0)))
        assert ints - {"index", "next_seq"} == set(_Worker.COUNTERS)

    def test_kill_quarantine_probe_readmit_matches_the_parent_dump(self, tmp_path):
        """``parallel.*`` against the recording; ``health.*`` against the
        bank: the same policy, shard 0 quarantined, the same 320 requests."""
        golden = json.loads((DATA / "parent_runtime_health_metrics.json").read_text())
        dump = json.loads(json.dumps(runtime_kill_scenario(str(tmp_path))))
        health = {name: dump.pop(name) for name in list(dump) if name.startswith("health.")}
        assert dump == golden
        bank = build_bank("dyn", 128, SystemConfig(), 2, health_policy=KILL_POLICY)
        bank.quarantine_shard(0, reason="death")
        bank.access_batch(kill_requests())
        assert health == bank.health.to_registry().to_dict()
        # the scenario fired what it names.  One restart: the kill.  The
        # recording read 2 while quarantine ran the shard in the front-end
        # process and re-admission respawned a worker from its checkpoint;
        # re-admission is now a breaker move inside the same process.
        assert golden["parallel.worker0.restarts"]["value"] == 1
        assert health["health.shard0.fallback_accesses"]["value"] == 8
        assert health["health.shard0.probes"]["value"] == 2
        assert health["health.shard0.transitions"]["value"] == 3
        assert health["health.transitions.probing_to_healthy"]["value"] == 1
