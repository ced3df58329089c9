"""Folding per-controller counter snapshots into a ``SimResult``.

The contract that makes the parallel runtime testable: running a request
stream through ``N`` worker processes and merging must produce the *same*
:class:`~repro.sim.results.SimResult` -- bit-identical, field for field --
as replaying the stream through an in-process
:class:`~repro.controller.sharded.ShardedORAMBank` of the same width.
Every route funnels through this module: :meth:`SecureSystem.run` (one
controller or a bank), the serial reference, the worker runtime and the
serving front end all sample their controllers with
:func:`repro.memory.oram_backend.snapshot_shard_stats`, and
:func:`fold_shard_snapshots` is the only place ORAM-side result fields are
assigned and aggregate semantics live (sum the counters, max the
watermarks, lookup-weight the hit rate, which ``extra`` keys exist and in
what order), so identity is structural rather than a property to chase.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.controller.sharded import build_bank
from repro.faults.fsck import run_fsck_bank
from repro.oram.checkpoint import _SCHEME_STAT_FIELDS
from repro.sim.results import SimResult

#: result fields summed straight off each controller's ``stats`` dict (also
#: what :meth:`SecureSystem._collect` copies off a DRAM backend's stats)
BACKEND_RESULT_FIELDS = (
    "demand_requests",
    "prefetch_requests",
    "write_accesses",
    "memory_accesses",
    "dummy_accesses",
    "posmap_accesses",
    "busy_cycles",
)

#: ``stats`` fields reported in ``extra`` when the fault ladder is wired
_FAULT_EXTRA_FIELDS = (
    "transient_faults",
    "fault_retries",
    "fault_delay_cycles",
    "forced_evictions",
)


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


def _summed(dicts: Sequence[Optional[dict]], assigned: str = "") -> dict:
    """Key-wise sum of the dicts that are present, in first-seen key order
    (the *assigned* key, equal on every shard, is taken instead of summed)."""
    total: dict = {}
    for counters in dicts:
        for name, value in (counters or {}).items():
            total[name] = value if name == assigned else total.get(name, 0) + value
    return total


def fold_shard_snapshots(
    result: SimResult, snapshots: Sequence[dict], *, bank: bool
) -> SimResult:
    """Fill the ORAM-side fields of *result* from controller snapshots.

    Args:
        result: carries the core-side fields already (workload, scheme,
            cycles, trace entries, cache hits and misses).
        snapshots: one :func:`snapshot_shard_stats` dict per controller,
            in shard order.
        bank: the controllers are channels of a bank, which reports its
            width as ``extra["num_shards"]``; a standalone controller
            does not.

    Robustness, injector and interconnect counters ride in ``extra`` --
    present only when a snapshot says a fault ladder / injector / non-flat
    interconnect is wired (a snapshot without those keys says it is not)
    -- so the pinned golden result schema (and every fault-free,
    flat-model consumer) is untouched.  Insertion order is part of the
    contract: result digests hash the dict's ``repr``.
    """
    for name in BACKEND_RESULT_FIELDS:
        setattr(result, name, sum(snap["stats"][name] for snap in snapshots))
    for name in _SCHEME_STAT_FIELDS:  # same names on SimResult
        setattr(result, name, sum(snap["scheme_stats"][name] for snap in snapshots))
    result.stash_max_occupancy = max(
        snap["stash_max_occupancy"] for snap in snapshots
    )
    lookups = sum(snap["posmap_lookups"] for snap in snapshots)
    hits = sum(snap["posmap_cache_hits"] for snap in snapshots)
    result.posmap_cache_hit_rate = hits / lookups if lookups else 0.0
    extra = result.extra
    if bank:
        extra["num_shards"] = len(snapshots)
    extra["stash_soft_overflows"] = sum(
        snap["stash_soft_overflows"] for snap in snapshots
    )
    for name, cycles in _summed([snap["phase_cycles"] for snap in snapshots]).items():
        extra[f"phase_{name}_cycles"] = cycles
    if any(snap.get("fault_model") for snap in snapshots):
        for name in _FAULT_EXTRA_FIELDS:
            extra[name] = sum(snap["stats"][name] for snap in snapshots)
    for name, value in _summed([snap.get("injected") for snap in snapshots]).items():
        extra[f"injected_{name}"] = value
    for name, value in _summed(
        [snap.get("interconnect") for snap in snapshots], assigned="channels"
    ).items():
        extra[f"interconnect_{name}"] = value
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
        snapshots: one :func:`snapshot_shard_stats` dict per shard, in
            shard order.
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
    static_sbsize: Optional[int] = None,
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
        static_sbsize=static_sbsize,
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
