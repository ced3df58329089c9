"""Tests for the process-parallel shard execution runtime.

The two contracts under test (DESIGN.md section 9):

* **Determinism** -- running a request stream through ``N`` worker
  processes and merging produces a :class:`SimResult` bit-identical to
  replaying the same stream through the in-process serial
  :class:`~repro.controller.sharded.ShardedORAMBank`.
* **Durability** -- a worker killed mid-run is respawned from its last
  checkpoint, the in-flight batches are replayed, and the merged
  accounting conserves every demand access and write exactly once.
"""

import dataclasses
import multiprocessing
import os
import threading
import time

import pytest

from repro.config import SystemConfig
from repro.controller.sharded import build_shard_backend
from repro.health import HealthPolicy
from repro.oram.checkpoint import dump_backend_state, restore_backend_state
from repro.parallel import (
    ParallelShardRuntime,
    WorkerFailure,
    merge_shard_snapshots,
    run_serial_reference,
)
from repro.parallel import runtime as runtime_module
from repro.parallel.merge import requests_from_trace
from repro.parallel.worker import ShardExecutor
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace

FOOTPRINT = 128


def small_stream(accesses=400, footprint=FOOTPRINT, seed=9):
    """A deterministic mixed-locality request stream."""
    rng = DeterministicRng(seed)
    requests = []
    now = 0
    for index in range(accesses):
        now += rng.randint(1, 40)
        if rng.randint(0, 9) < 7:  # mostly sequential, some jumps
            addr = (index * 2 + rng.randint(0, 3)) % footprint
        else:
            addr = rng.randint(0, footprint - 1)
        requests.append((addr, now, index % 5 == 0))
    return requests


# ------------------------------------------------------------- determinism
class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_merged_result_bit_identical_to_serial(self, workers):
        requests = small_stream()
        config = SystemConfig()
        serial = run_serial_reference(
            "dyn", FOOTPRINT, requests, config, num_shards=workers
        )
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, config, workers, batch_size=23
        ) as runtime:
            parallel = runtime.run(requests)
        assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)

    def test_identical_across_schemes(self):
        requests = small_stream(accesses=200)
        config = SystemConfig()
        for scheme in ("oram", "stat"):
            serial = run_serial_reference(
                scheme, FOOTPRINT, requests, config, num_shards=2
            )
            with ParallelShardRuntime(
                scheme, FOOTPRINT, config, 2, batch_size=16
            ) as runtime:
                parallel = runtime.run(requests)
            assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)

    def test_repeat_runs_are_reproducible(self):
        requests = small_stream(accesses=150)
        config = SystemConfig()

        def once():
            with ParallelShardRuntime(
                "dyn", FOOTPRINT, config, 2, batch_size=11
            ) as runtime:
                return runtime.run(requests)

        assert dataclasses.asdict(once()) == dataclasses.asdict(once())

    def test_serial_reference_matches_trace_derived_stream(self):
        trace = locality_mix_trace(0.8, accesses=300)
        requests = requests_from_trace(trace)
        assert len(requests) == 300
        nows = [now for _addr, now, _w in requests]
        assert nows == sorted(nows)
        result = run_serial_reference(
            "dyn", trace.footprint_blocks, requests, SystemConfig(), num_shards=2
        )
        assert result.demand_requests == 300
        assert result.extra["num_shards"] == 2


# -------------------------------------------------------------- durability
class TestParallelRecovery:
    def test_kill_before_run_respawns_and_replays(self, tmp_path):
        """A worker dead before its first batch replays from the genesis
        checkpoint without losing a single access."""
        requests = small_stream(accesses=300)
        config = SystemConfig()
        serial = run_serial_reference(
            "dyn", FOOTPRINT, requests, config, num_shards=2
        )
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            config,
            2,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=1,
            batch_size=16,
        ) as runtime:
            runtime.kill_worker(0)
            parallel = runtime.run(requests, fsck=True)
            assert runtime.total_restarts() >= 1
        for field in (
            "trace_entries",
            "llc_misses",
            "demand_requests",
            "write_accesses",
        ):
            assert getattr(parallel, field) == getattr(serial, field)

    def test_kill_mid_run_conserves_accounting(self, tmp_path):
        requests = small_stream(accesses=1200, footprint=256)
        config = SystemConfig()
        serial = run_serial_reference(
            "dyn", 256, requests, config, num_shards=2
        )
        with ParallelShardRuntime(
            "dyn",
            256,
            config,
            2,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=1,
            batch_size=8,
            max_restarts=4,
        ) as runtime:
            killer = threading.Thread(
                target=lambda: (time.sleep(0.2), runtime.kill_worker(0))
            )
            killer.start()
            parallel = runtime.run(requests, fsck=True)
            killer.join()
        # Whether or not the kill landed mid-run (it may race completion),
        # the merged accounting must conserve every access exactly once.
        for field in (
            "trace_entries",
            "llc_misses",
            "demand_requests",
            "write_accesses",
        ):
            assert getattr(parallel, field) == getattr(serial, field)

    def test_crash_in_second_run_replays_only_that_run(self, tmp_path):
        """Regression: with a cadence other than 1 the batches a finished
        run() left un-checkpointed stayed queued as replay fodder, so a
        crash in the next run() replayed them -- carrying positions of the
        *first* run's request list -- into the second run's results."""
        first = small_stream(accesses=300)
        second = small_stream(accesses=40, seed=10)
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            SystemConfig(),
            2,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=4,
            batch_size=8,
        ) as runtime:
            runtime.run(first)
            runtime.kill_worker(0)
            result = runtime.run(second, fsck=True)
            assert runtime.total_restarts() == 1
        assert result.trace_entries == result.llc_misses == len(second)
        # Counters are cumulative over the runtime's life: every access of
        # both runs applied exactly once, none of the first run's twice.
        assert result.demand_requests == len(first) + len(second)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the planted death reaches the workers by fork inheritance",
    )
    def test_death_inside_the_barrier_replays_the_barrier(
        self, tmp_path, monkeypatch
    ):
        """The commands that end a run stay pending until its ``stats``
        reply, like batches until their ack: a worker that answers
        ``drain`` and dies before ``stats`` is reopened from its pre-drain
        checkpoint and drained again, so the snapshot it ships equals the
        uninterrupted one (the treetop flush counters tell)."""
        base = SystemConfig()
        config = dataclasses.replace(
            base, oram=dataclasses.replace(base.oram, treetop_levels=4)
        )
        requests = small_stream(accesses=300)
        shipped = []
        merge = runtime_module.merge_shard_snapshots
        monkeypatch.setattr(
            runtime_module,
            "merge_shard_snapshots",
            lambda snapshots, *args, **kwargs: shipped.append(snapshots)
            or merge(snapshots, *args, **kwargs),
        )

        def run(checkpoint_dir):
            with ParallelShardRuntime(
                "dyn", FOOTPRINT, config, 2,
                checkpoint_dir=str(checkpoint_dir), batch_size=16,
            ) as runtime:
                return runtime.run(requests), runtime.total_restarts()

        clean, clean_restarts = run(tmp_path / "clean")
        handle = ShardExecutor.handle

        def dies_at_first_stats(executor, command):
            spec = executor.spec
            if command[0] == "stats" and (spec.shard_index, spec.rng_restart_salt) == (0, 0):
                time.sleep(0.3)  # let the queue's feeder ship "drained"
                os._exit(1)
            return handle(executor, command)

        monkeypatch.setattr(ShardExecutor, "handle", dies_at_first_stats)
        killed, killed_restarts = run(tmp_path / "killed")
        assert (clean_restarts, killed_restarts) == (0, 1)
        assert shipped[1] == shipped[0]
        assert shipped[0][0]["treetop"]["flushes"] == 1
        assert dataclasses.asdict(killed) == dataclasses.asdict(clean)

    def test_death_without_checkpointing_is_fatal(self):
        requests = small_stream(accesses=600)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, SystemConfig(), 2, batch_size=8
        ) as runtime:
            runtime.kill_worker(1)
            with pytest.raises(WorkerFailure):
                runtime.run(requests)

    @pytest.mark.parametrize(
        "policy",
        [None, HealthPolicy(join_timeout_s=2.0)],
        ids=["no_plane", "plane"],
    )
    def test_restart_budget_enforced(self, tmp_path, policy):
        """One rule, plane or not: a failure past ``max_restarts`` is fatal.
        (A plane used to park the shard in the front-end process instead.)"""
        requests = small_stream(accesses=600)
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            SystemConfig(),
            2,
            checkpoint_dir=str(tmp_path),
            max_restarts=0,
            batch_size=8,
            health_policy=policy,
        ) as runtime:
            runtime.kill_worker(0)
            with pytest.raises(WorkerFailure, match="restart budget"):
                runtime.run(requests)


# ----------------------------------------------------------- observability
class TestParallelMetrics:
    def test_worker_gauges_populated(self):
        requests = small_stream(accesses=200)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, SystemConfig(), 2, batch_size=16
        ) as runtime:
            runtime.run(requests)
            registry = runtime.metrics()
            names = {instrument.name for instrument in registry}
            for index in range(2):
                assert f"parallel.worker{index}.queue_depth" in names
                assert f"parallel.worker{index}.batches" in names
                assert f"parallel.worker{index}.batch_roundtrip_us" in names
                assert registry.counter(f"parallel.worker{index}.batches").value > 0
                assert (
                    registry.histogram(
                        f"parallel.worker{index}.batch_roundtrip_us"
                    ).total
                    > 0
                )
            # Queue depth gauge reads zero once everything is acknowledged.
            assert registry.gauge("parallel.worker0.queue_depth").value == 0

    def test_collect_parallel_merges_into_registry(self):
        from repro.observability import MetricsRegistry, collect_parallel

        requests = small_stream(accesses=120)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, SystemConfig(), 2, batch_size=16
        ) as runtime:
            runtime.run(requests)
            shared = MetricsRegistry()
            shared.counter("unrelated.metric").set(7)
            merged = collect_parallel(runtime, shared)
        assert merged is shared
        assert merged.gauge("parallel.num_workers").value == 2
        assert merged.counter("parallel.worker1.batches").value > 0
        assert merged.counter("unrelated.metric").value == 7


# ------------------------------------------------------- merge & checkpoint
class TestMergeAndCheckpoint:
    def test_merge_empty_snapshots(self):
        fresh = build_shard_backend("dyn", FOOTPRINT, SystemConfig(), 0, 1)
        merged = merge_shard_snapshots(
            [fresh.counters()], [], workload="empty", scheme="dyn"
        )
        assert merged.cycles == 0
        assert merged.trace_entries == 0
        assert merged.memory_accesses == 0
        assert merged.posmap_cache_hit_rate == 0.0
        assert merged.extra["num_shards"] == 1

    def test_backend_checkpoint_roundtrip_preserves_counters(self):
        config = SystemConfig()
        source = build_shard_backend("dyn", FOOTPRINT, config, 0, 2)
        rng = DeterministicRng(3)
        now = 0
        for index in range(120):
            now += rng.randint(1, 30)
            source.demand_access(index % 64, now, index % 4 == 0)
        payload = dump_backend_state(source, {"last_seq": 5, "replies": [[5, [1]]]})
        clone = build_shard_backend("dyn", FOOTPRINT, config, 0, 2)
        runtime_state = restore_backend_state(clone, payload)
        assert runtime_state == {"last_seq": 5, "replies": [[5, [1]]]}
        assert clone.counters() == source.counters()
        clone.oram.check_invariants()

    def test_worker_seed_derivation_matches_serial_bank(self):
        """The worker-side builder and the serial bank must draw the same
        per-shard RNG streams (the root of the bit-identity guarantee)."""
        from repro.sim.system import SecureSystem

        config = SystemConfig()
        bank = SecureSystem.build(
            "dyn", FOOTPRINT, config, num_shards=3
        ).backend
        for index in range(3):
            solo = build_shard_backend("dyn", FOOTPRINT, config, index, 3)
            assert solo.oram.rng.randint(0, 1 << 30) == bank.shards[
                index
            ].oram.rng.randint(0, 1 << 30)
            assert (
                solo.oram.position_map.num_blocks
                == bank.shards[index].oram.position_map.num_blocks
            )
