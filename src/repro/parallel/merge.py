"""Folding per-controller counter snapshots into a ``SimResult``.

The contract that makes the parallel runtime testable: running a request
stream through ``N`` worker processes and merging must produce the *same*
:class:`~repro.sim.results.SimResult` -- bit-identical, field for field --
as replaying the stream through an in-process
:class:`~repro.controller.sharded.ShardedORAMBank` of the same width.
Every route funnels through this module: :meth:`SecureSystem.run` (one
controller or a bank), the serial reference, the worker runtime and the
serving front end all sample their controllers with
:meth:`repro.memory.oram_backend.ORAMBackend.counters`, and
:func:`fold_shard_snapshots` is the only place ORAM-side result fields are
assigned and aggregate semantics live (sum the counters, max the
watermarks, lookup-weight the hit rate, which ``extra`` keys exist and in
what order), so identity is structural rather than a property to chase.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.controller.sharded import build_bank
from repro.faults.fsck import run_fsck_bank
from repro.memory.backend import FAULT_COUNTERS, sum_counters
from repro.memory.interconnect import stream_efficiency, summarize
from repro.sim.results import SimResult


def requests_from_trace(trace) -> List[Tuple[int, int, bool]]:
    """Flatten a :class:`~repro.sim.trace.Trace` into a request stream.

    Every reference becomes a demand request with the trace's inter-access
    gaps accumulated into arrival cycles -- a cache-less stand-in for a
    miss stream when a pre-captured one (see
    :func:`repro.sim.multicore.capture_miss_stream`) is not available.
    """
    requests: List[Tuple[int, int, bool]] = []
    now = 0
    for gap, addr, is_write in trace.entries:
        now += gap
        requests.append((addr, now, bool(is_write)))
    return requests


def _assign_backend_stats(result: SimResult, stats: dict) -> None:
    """Copy ``BackendStats`` counters onto the result fields of the same
    name (all of them but the fault ladder's, which ride in ``extra``)."""
    for name, value in stats.items():
        if name not in FAULT_COUNTERS:
            setattr(result, name, value)


def fold_backend(result: SimResult, backend) -> SimResult:
    """Fill the memory-side fields of *result* from the backend of a run.

    Both simulators end here.  Everything ORAM-side comes from
    ``backend.snapshot_shards()`` through :func:`fold_shard_snapshots`,
    the fold every other route uses; DRAM has no controller, so the
    counters are the backend's own.
    """
    snapshots = backend.snapshot_shards()
    if not snapshots:
        _assign_backend_stats(result, asdict(backend.stats))
        return result
    return fold_shard_snapshots(
        result, snapshots, bank=backend.bank_width is not None
    )


def fold_shard_snapshots(
    result: SimResult, snapshots: Sequence[dict], *, bank: bool
) -> SimResult:
    """Fill the ORAM-side fields of *result* from controller snapshots.

    Args:
        result: carries the core-side fields already (workload, scheme,
            cycles, trace entries, cache hits and misses).
        snapshots: one ``ORAMBackend.counters()`` dict per controller, in
            shard order.
        bank: the controllers are channels of a bank, which reports its
            width as ``extra["num_shards"]``; a standalone controller
            does not.

    Robustness, injector and interconnect counters ride in ``extra`` --
    present only when a snapshot says a fault ladder / injector / non-flat
    interconnect is wired -- so the pinned golden result schema (and every
    fault-free, flat-model consumer) is untouched.  Insertion order is
    part of the contract: result digests hash the dict's ``repr``.
    """
    stats = sum_counters(snap["stats"] for snap in snapshots)
    _assign_backend_stats(result, stats)
    scheme_stats = sum_counters(snap["scheme_stats"] for snap in snapshots)
    for name, value in scheme_stats.items():  # same names on SimResult
        setattr(result, name, value)
    result.stash_max_occupancy = max(
        snap["stash_max_occupancy"] for snap in snapshots
    )
    posmap = sum_counters(snap["posmap_hierarchy"] for snap in snapshots)
    lookups = posmap["lookups"]
    result.posmap_cache_hit_rate = posmap["cache_hits"] / lookups if lookups else 0.0
    extra = result.extra
    if bank:
        extra["num_shards"] = len(snapshots)
    extra["stash_soft_overflows"] = sum(
        snap["oram"]["stash_soft_overflows"] for snap in snapshots
    )
    phases = sum_counters(snap["phase_cycles"] for snap in snapshots)
    for name, cycles in phases.items():
        extra[f"phase_{name}_cycles"] = cycles
    if any(snap["fault_model"] for snap in snapshots):
        for name in FAULT_COUNTERS:
            extra[name] = stats[name]
    for name, value in sum_counters(snap["injector"] for snap in snapshots).items():
        extra[f"injected_{name}"] = value
    summaries = [
        summarize(snap["interconnect"])
        for snap in snapshots
        if snap["interconnect"]["model"] != "flat"
    ]
    for name, value in sum_counters(summaries).items():
        extra[f"interconnect_{name}"] = value
    if summaries:  # per-controller constants, equal on every shard: not summed
        extra["interconnect_channels"] = summaries[0]["channels"]
        extra["interconnect_path_cycles"] = summaries[0]["path_cycles"]
        extra["interconnect_stream_efficiency"] = stream_efficiency(
            extra["interconnect_streamed_paths"],
            extra["interconnect_path_cycles"],
            extra["interconnect_streamed_cycles"],
        )
    return result


def merge_shard_snapshots(
    snapshots: Sequence[dict],
    completions: Sequence[int],
    *,
    workload: str,
    scheme: str,
) -> SimResult:
    """Fold per-shard counter snapshots into one bank-level result.

    Args:
        snapshots: one ``ORAMBackend.counters()`` dict per shard, in shard
            order.
        completions: completion cycle of every request, in input order;
            the run's cycle count is the last finishing one.
        workload: label for the result's workload field.
        scheme: label for the result's scheme field.
    """
    return fold_shard_snapshots(
        SimResult(
            workload=workload,
            scheme=scheme,
            cycles=max(completions, default=0),
            trace_entries=len(completions),
            llc_misses=len(completions),
        ),
        snapshots,
        bank=True,
    )


def run_serial_reference(
    scheme: str,
    footprint_blocks: int,
    requests: Sequence[Tuple[int, int, bool]],
    config: Optional[SystemConfig] = None,
    num_shards: int = 1,
    *,
    workload: str = "parallel",
    fsck: bool = False,
) -> SimResult:
    """Replay a request stream through an in-process sharded bank.

    This is the golden oracle for the parallel runtime: same shard
    construction (:func:`~repro.controller.sharded.build_shard_backend`),
    same per-shard request sub-streams, same snapshot/merge path -- just no
    processes.  ``ParallelShardRuntime.run`` must match its return value
    exactly, and so must a serving front end whose ``issued`` schedule is
    passed as *requests*.
    """
    bank = build_bank(
        scheme,
        footprint_blocks,
        config or SystemConfig(),
        num_shards,
    )
    results = bank.access_batch(list(requests))
    completions: List[int] = [r.completion_cycle for r in results]
    bank.finalize(max(completions, default=0))
    if fsck:
        report = run_fsck_bank(bank)
        if not report.ok:
            raise RuntimeError(f"serial reference fsck failed: {report.summary()}")
    return merge_shard_snapshots(
        bank.snapshot_shards(), completions, workload=workload, scheme=scheme
    )
