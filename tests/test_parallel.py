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
from repro.faults import FaultConfig
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
    def test_merged_result_bit_identical_to_serial(self, tmp_path, workers):
        requests = small_stream()
        config = SystemConfig()
        serial = run_serial_reference(
            "dyn", FOOTPRINT, requests, config, num_shards=workers
        )
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, config, workers,
            checkpoint_dir=str(tmp_path), batch_size=23,
        ) as runtime:
            parallel = runtime.run(requests)
        assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)

    def test_identical_across_schemes(self, tmp_path):
        requests = small_stream(accesses=200)
        config = SystemConfig()
        for scheme in ("oram", "stat"):
            serial = run_serial_reference(
                scheme, FOOTPRINT, requests, config, num_shards=2
            )
            with ParallelShardRuntime(
                scheme, FOOTPRINT, config, 2,
                checkpoint_dir=str(tmp_path / scheme), batch_size=16,
            ) as runtime:
                parallel = runtime.run(requests)
            assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)

    def test_repeat_runs_are_reproducible(self, tmp_path):
        requests = small_stream(accesses=150)
        config = SystemConfig()

        def once():
            with ParallelShardRuntime(
                "dyn", FOOTPRINT, config, 2,
                checkpoint_dir=str(tmp_path), batch_size=11,
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

    def test_a_run_of_k_batches_is_k_plus_one_commands(self, tmp_path, monkeypatch):
        """One ``finish`` ends a run, with or without an audit and
        whatever the checkpoint cadence: a ``run()`` of k batches sends a
        worker k + 1 seq-numbered commands, numbered consecutively."""
        sent = {0: [], 1: []}
        send = ParallelShardRuntime._send

        def logged(runtime, worker, seq, positions, command):
            sent[worker.index].append((seq, command[0]))
            send(runtime, worker, seq, positions, command)

        monkeypatch.setattr(ParallelShardRuntime, "_send", logged)
        requests = small_stream(accesses=200)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, SystemConfig(), 2,
            checkpoint_dir=str(tmp_path), checkpoint_every=0, batch_size=16,
        ) as runtime:
            runtime.run(requests)
            runtime.run(requests, fsck=True)
        for index, commands in sent.items():
            batches = -(-sum(addr % 2 == index for addr, _, _ in requests) // 16)
            run = ["batch"] * batches + ["finish"]
            assert [op for _seq, op in commands] == run + run
            assert [seq for seq, _op in commands] == list(range(2 * (batches + 1)))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the planted corruption reaches the workers by fork inheritance",
    )
    def test_fsck_failure_carries_the_summary_finish_shipped(
        self, tmp_path, monkeypatch
    ):
        """A shard whose ORAM lost a block fails the audit inside its
        ``finish``; ``run(fsck=True)`` raises with the summary that the
        ``finished`` reply shipped."""
        finish = ShardExecutor._finish

        def loses_a_block(executor, seq, horizon, fsck):
            if executor.spec.shard_index == 1:
                tree = executor.backend.oram.tree
                next(b for b in map(tree.bucket, range(tree.num_buckets)) if b).pop()
            return finish(executor, seq, horizon, fsck)

        monkeypatch.setattr(ShardExecutor, "_finish", loses_a_block)
        finished = []
        poll = ParallelShardRuntime._poll

        def watched(runtime, worker, **kwargs):
            reply = poll(runtime, worker, **kwargs)
            if reply is not None and reply[0] == "finished":
                finished.append(reply)
            return reply

        monkeypatch.setattr(ParallelShardRuntime, "_poll", watched)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, SystemConfig(), 2,
            checkpoint_dir=str(tmp_path), batch_size=16,
        ) as runtime:
            with pytest.raises(WorkerFailure) as failed:
                runtime.run(small_stream(accesses=200), fsck=True)
        summaries = [reply[4] for reply in finished]
        assert summaries.count(None) == 1
        (summary,) = [text for text in summaries if text is not None]
        assert "census" in summary
        assert str(failed.value) == "parallel fsck failed: " + summary

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the planted death reaches the workers by fork inheritance",
    )
    def test_death_inside_the_barrier_replays_the_barrier(
        self, tmp_path, monkeypatch
    ):
        """The ``finish`` that ends a run stays pending until its reply,
        like a batch until its ack: a worker that dies inside ``finish``,
        after the finalize (and, at cadence 0, after the checkpoint of the
        run's batches) and before the reply, is reopened from its
        checkpoint and finished again, so the snapshot it ships equals the
        uninterrupted one."""
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

        def run(checkpoint_dir, checkpoint_every):
            with ParallelShardRuntime(
                "dyn", FOOTPRINT, config, 2,
                checkpoint_dir=str(checkpoint_dir),
                checkpoint_every=checkpoint_every, batch_size=16,
            ) as runtime:
                return runtime.run(requests), runtime.total_restarts()

        finish = ShardExecutor._finish

        def dies_before_replying(executor, *args):
            reply = finish(executor, *args)
            spec = executor.spec
            if (spec.shard_index, spec.rng_restart_salt) == (0, 0):
                os._exit(1)
            return reply

        for checkpoint_every in (1, 0):
            shipped.clear()
            monkeypatch.setattr(ShardExecutor, "_finish", finish)
            clean, clean_restarts = run(
                tmp_path / f"clean{checkpoint_every}", checkpoint_every
            )
            monkeypatch.setattr(ShardExecutor, "_finish", dies_before_replying)
            killed, killed_restarts = run(
                tmp_path / f"killed{checkpoint_every}", checkpoint_every
            )
            assert (clean_restarts, killed_restarts) == (0, 1), checkpoint_every
            assert shipped[1] == shipped[0], checkpoint_every
            assert dataclasses.asdict(killed) == dataclasses.asdict(clean)

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

    def test_endless_retries_refused_before_any_worker_starts(
        self, tmp_path, monkeypatch
    ):
        """A fault config no timing backend can finish under is refused in
        the caller's process, as a serial build refuses it -- not by a
        worker's traceback after the process was spawned."""
        started = []

        def start(runtime, worker):
            started.append(worker.index)
            raise RuntimeError("a worker process was started")

        monkeypatch.setattr(ParallelShardRuntime, "_start", start)
        children = multiprocessing.active_children()
        with pytest.raises(ValueError, match="transient_rate"):
            ParallelShardRuntime(
                "oram", 512, num_workers=1, checkpoint_dir=str(tmp_path),
                fault_config=FaultConfig(transient_rate=1.0),
            )
        assert started == []
        assert multiprocessing.active_children() == children


# ----------------------------------------------------------- observability
class TestParallelMetrics:
    def test_worker_gauges_populated(self, tmp_path):
        requests = small_stream(accesses=200)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, SystemConfig(), 2,
            checkpoint_dir=str(tmp_path), batch_size=16,
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

    def test_collect_parallel_merges_into_registry(self, tmp_path):
        from repro.observability import MetricsRegistry, collect_parallel

        requests = small_stream(accesses=120)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, SystemConfig(), 2,
            checkpoint_dir=str(tmp_path), batch_size=16,
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
