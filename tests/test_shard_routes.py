"""Route equivalence by construction: one shard executor, one result fold.

* **One executor, one transport** -- the same scripted command sequence
  driven straight through :meth:`ShardExecutor.handle` in this process
  and through a real worker process (:func:`shard_worker_main`) yields
  identical reply tuples: the process replies exactly what the executor
  yields, in every health state of the shard.
* **One fold** -- :meth:`SecureSystem.run`, the serial reference and the
  worker runtime all report the same ``extra`` keys in the same order,
  including the interconnect and fault-injection counters the snapshot
  route used to drop.
* The runtime's failure handling around them: constructor clean-up,
  failure reasons, and dummy padding of quarantined traffic.
"""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.config import SystemConfig
from repro.controller.sharded import build_shard_backend
from repro.faults import FaultConfig, FaultInjector
from repro.health import HealthPolicy, HealthState
from repro.observability.collect import collect_parallel
from repro.oram.checkpoint import dump_backend_state, restore_backend_state
from repro.parallel import ParallelShardRuntime, WorkerFailure, run_serial_reference
from repro.parallel.protocol import ShardSpec
from repro.parallel.worker import ShardExecutor, shard_worker_main
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace

FOOTPRINT = 128


def small_stream(accesses=300, footprint=FOOTPRINT, seed=9):
    rng = DeterministicRng(seed)
    requests = []
    now = 0
    for index in range(accesses):
        now += rng.randint(1, 40)
        requests.append((rng.randint(0, footprint - 1), now, index % 4 == 0))
    return requests


def channel_config(channels=4):
    config = SystemConfig()
    return dataclasses.replace(
        config,
        dram=dataclasses.replace(config.dram, model="channel", num_channels=channels),
    )


# ------------------------------------------------------ transport equivalence
def scripted_commands():
    """Batches (one replayed, one far outside the reply window), every
    barrier command, a forced checkpoint, a health state (no reply) and an
    unknown op."""
    rng = DeterministicRng(5)
    now = 0
    commands = []
    for seq in range(6):
        batch = []
        for index in range(7):
            now += rng.randint(1, 30)
            batch.append((rng.randint(0, FOOTPRINT // 2 - 1), now, index % 3 == 0))
        commands.append(("batch", seq, batch))
    replayed = commands[4]
    out_of_window = commands[0]
    commands += [
        replayed,  # already applied: answered from the window
        ("health", None, "degraded"),
        out_of_window,  # replay_window=3 forgot it: an error reply
        ("checkpoint", 6),
        ("drain", 7, now + 10_000),
        ("fsck", 8),
        ("stats", 9),
        ("reticulate", 10),
    ]
    return commands


def spec_for(path, heartbeat_every=3):
    return ShardSpec(
        base_scheme="dyn",
        footprint_blocks=FOOTPRINT,
        num_shards=2,
        shard_index=1,
        config=SystemConfig(),
        checkpoint_path=str(path),
        checkpoint_every=2,
        replay_window=3,
        heartbeat_every=heartbeat_every,
    )


def apply(executor, *commands):
    """Drive *executor* directly: the replies it yields to *commands*."""
    return [reply for command in commands for reply in executor.handle(command)]


def through_process(spec, commands, expected):
    context = multiprocessing.get_context()
    command_queue, reply_queue = context.Queue(), context.Queue()
    process = context.Process(
        target=shard_worker_main, args=(spec, command_queue, reply_queue), daemon=True
    )
    process.start()
    try:
        for command in commands:
            command_queue.put(command)
        replies = [reply_queue.get(timeout=60) for _ in range(expected)]
        command_queue.put(("shutdown",))
        process.join(timeout=30)
        assert not process.is_alive()
        assert reply_queue.empty()
        return replies
    finally:
        if process.is_alive():
            process.terminate()
            process.join(timeout=30)


class TestTransportEquivalence:
    def test_inline_and_process_transports_reply_identically(self, tmp_path):
        """The process replies exactly what the executor yields when this
        process drives it inline."""
        commands = scripted_commands()
        executor = ShardExecutor(spec_for(tmp_path / "inline.ckpt"))
        inline = [executor.ready()] + apply(executor, *commands)
        process = through_process(
            spec_for(tmp_path / "process.ckpt"), commands, len(inline)
        )
        assert process == inline
        ops = [reply[0] for reply in inline]
        assert ops[0] == "ready"
        assert ops.count("batch_done") == 7  # six applied + one re-served
        assert ops.count("heartbeat") == 6 * 2
        assert ops.count("error") == 2  # out-of-window replay, unknown op
        assert {"checkpoint_done", "drained", "fsck_done", "stats"} <= set(ops)
        # the re-served acknowledgement is the stored one, verbatim
        done = [reply for reply in inline if reply[0] == "batch_done"]
        assert done[-1][1:3] == done[4][1:3]

    def test_reopened_executor_resumes_from_its_checkpoint(self, tmp_path):
        """An executor opened on a worker process's checkpoint announces
        what that process had applied."""
        commands = scripted_commands()[:6]
        spec = spec_for(tmp_path / "shared.ckpt", heartbeat_every=0)
        first = through_process(spec, commands, 1 + len(commands))
        ready = ShardExecutor(spec).ready()
        assert ready[0] == "ready" and ready[1] == 5
        assert [seq for seq, _ in ready[2]] == [3, 4, 5]
        assert ready[2][-1][1] == first[-1][2]

    def test_padding_is_chosen_by_whoever_opens_the_channel(self, tmp_path):
        """The opener tells the executor its health state; a padded one
        adds one dummy path per request and no demand access."""
        batch = scripted_commands()[0]
        plain = ShardExecutor(spec_for(tmp_path / "plain.ckpt"))
        padded = ShardExecutor(spec_for(tmp_path / "padded.ckpt"))
        apply(padded, ("health", None, "quarantined"))
        plain_stats = apply(plain, batch, ("stats", 1))[-1][2]["stats"]
        padded_stats = apply(padded, batch, ("stats", 1))[-1][2]["stats"]
        assert plain_stats["demand_requests"] == padded_stats["demand_requests"]
        assert (
            padded_stats["dummy_accesses"]
            >= plain_stats["dummy_accesses"] + len(batch[2])
        )

    @pytest.mark.parametrize("state", list(HealthState), ids=lambda state: state.value)
    def test_the_health_command_sets_padding_and_degraded_mode(self, tmp_path, state):
        """After ``("health", None, state)`` a batch carries exactly one
        dummy path per request iff the state is padded, and the backend
        runs degraded iff the state is throttled."""
        executor = ShardExecutor(spec_for(tmp_path / "shard.ckpt"))
        apply(executor, ("health", None, state.value))
        backend = executor.backend
        padding = []
        dummy_path_access = backend.dummy_path_access
        backend.dummy_path_access = lambda now: padding.append(now) or dummy_path_access(now)
        batch = scripted_commands()[0]
        assert apply(executor, batch)[-1][0] == "batch_done"
        assert len(padding) == (len(batch[2]) if state.padded else 0)
        assert backend.degraded == state.throttled


# ------------------------------------------------------------------ one fold
class TestFoldedExtras:
    def test_interconnect_extras_on_every_route(self):
        """Regression: the snapshot route dropped ``interconnect_*``."""
        config = channel_config()
        requests = small_stream(accesses=200)
        trace = locality_mix_trace(0.8, footprint_blocks=FOOTPRINT, accesses=600)
        bank = SecureSystem.build("dyn", FOOTPRINT, config, num_shards=2)
        system = bank.run(trace)
        serial = run_serial_reference("dyn", FOOTPRINT, requests, config, num_shards=2)
        with ParallelShardRuntime("dyn", FOOTPRINT, config, 2, batch_size=23) as runtime:
            parallel = runtime.run(requests)
        assert list(serial.extra) == list(system.extra)
        assert list(parallel.extra) == list(system.extra)
        assert parallel.extra == serial.extra
        keys = list(system.extra)
        assert keys[0] == "num_shards"
        interconnect = [key for key in keys if key.startswith("interconnect_")]
        assert len(interconnect) == 13  # + path_cycles, stream_efficiency
        assert keys[-13:] == interconnect
        for result in (system, serial):
            # per-controller constants and the ratio: assigned, not summed
            assert result.extra["interconnect_channels"] == 4
            assert result.extra["interconnect_path_cycles"] == (
                bank.backend.shards[0].interconnect.path_cycles
            )
            assert result.extra["interconnect_stream_efficiency"] == (
                result.extra["interconnect_streamed_paths"]
                * result.extra["interconnect_path_cycles"]
                / result.extra["interconnect_streamed_cycles"]
            )
            assert result.extra["interconnect_streamed_paths"] > 0
            assert result.extra["interconnect_row_hits"] > 0

    def test_single_controller_reports_no_bank_width(self):
        trace = locality_mix_trace(0.8, footprint_blocks=FOOTPRINT, accesses=400)
        single = SecureSystem.build("dyn", FOOTPRINT, channel_config()).run(trace)
        bank = SecureSystem.build(
            "dyn", FOOTPRINT, channel_config(), num_shards=2
        ).run(trace)
        assert "num_shards" not in single.extra
        assert list(bank.extra)[1:] == list(single.extra)

    def test_flat_fault_free_results_carry_no_new_extras(self):
        requests = small_stream(accesses=120)
        serial = run_serial_reference("dyn", FOOTPRINT, requests, num_shards=2)
        assert not any(
            key.startswith(("interconnect_", "injected_"))
            or key in ("transient_faults", "fault_retries", "forced_evictions")
            for key in serial.extra
        )

    def test_fault_extras_on_the_worker_route(self):
        """Regression: the snapshot route dropped the fault counters the
        snapshot carried; workers' injector counters are summed."""
        fault_config = FaultConfig(seed=3, transient_rate=0.05, delay_rate=0.05)
        trace = locality_mix_trace(0.8, footprint_blocks=FOOTPRINT, accesses=600)
        system = SecureSystem.build(
            "dyn", FOOTPRINT, num_shards=2, fault_injector=FaultInjector(fault_config)
        )
        bank_result = system.run(trace)
        with ParallelShardRuntime(
            "dyn", FOOTPRINT, None, 2, batch_size=23, fault_config=fault_config
        ) as runtime:
            parallel = runtime.run(small_stream(accesses=300))
        assert list(parallel.extra) == list(bank_result.extra)
        assert parallel.extra["transient_faults"] > 0
        assert parallel.extra["fault_retries"] >= parallel.extra["transient_faults"]
        assert parallel.extra["injected_transients"] == parallel.extra["transient_faults"]
        # one injector shared by both channels of the in-process bank is
        # reported once, not once per channel
        shared = system.backend.shards[0].injector
        assert system.backend.shards[1].injector is shared
        assert bank_result.extra["injected_transients"] == shared.stats.transients

    @pytest.mark.parametrize("plane", [False, True], ids=["process", "in_quarantine"])
    def test_injector_counters_survive_a_reopened_shard(self, tmp_path, plane):
        """Regression: checkpoints carried ``BackendStats`` but not the
        injector's own counters, so a shard reopened after a kill reported
        restored ``transient_faults`` next to ``injected_transients`` that
        had restarted at zero.  With or without a health plane the shard
        comes back as a live worker process (quarantined under a plane)."""
        requests = small_stream(accesses=300)
        policy = HealthPolicy(batch_deadline_s=5.0, join_timeout_s=2.0)
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            num_workers=2,
            checkpoint_dir=str(tmp_path),
            batch_size=23,
            fault_config=FaultConfig(seed=3, transient_rate=0.05, delay_rate=0.05),
            health_policy=policy if plane else None,
        ) as runtime:
            before = runtime.run(requests)
            runtime.kill_worker(0)
            after = runtime.run([(addr, now + 50_000, w) for addr, now, w in requests])
            assert runtime.total_restarts() >= 1
            assert runtime._workers[0].process.is_alive()
            if plane:
                assert runtime.health.total_quarantines() == 1
        assert before.extra["transient_faults"] > 0
        assert after.extra["transient_faults"] > before.extra["transient_faults"]
        for result in (before, after):
            assert result.extra["injected_transients"] == result.extra["transient_faults"]
            assert result.extra["injected_delay_cycles"] > 0

    @pytest.mark.parametrize("plane", [False, True], ids=["process", "in_quarantine"])
    def test_flat_interconnect_counters_survive_a_reopened_shard(
        self, tmp_path, monkeypatch, plane
    ):
        """Regression: ``FlatInterconnect`` had no ``state_dict``, so on the
        default model every checkpoint -> restore zeroed the path and
        treetop counters.  The registry built from the snapshots a killed
        and reopened shard ships equals the one from before the kill; the
        reopened shard is a live worker process, plane off or on."""
        from repro.observability import collect_controllers
        from repro.parallel import runtime as runtime_module

        shipped = []
        merge = runtime_module.merge_shard_snapshots

        def capture(snapshots, *args, **kwargs):
            shipped.append(snapshots)
            return merge(snapshots, *args, **kwargs)

        monkeypatch.setattr(runtime_module, "merge_shard_snapshots", capture)
        base = SystemConfig()
        config = dataclasses.replace(
            base, oram=dataclasses.replace(base.oram, treetop_levels=4)
        )
        policy = HealthPolicy(batch_deadline_s=5.0, join_timeout_s=2.0)
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            config,
            2,
            checkpoint_dir=str(tmp_path),
            batch_size=23,
            health_policy=policy if plane else None,
        ) as runtime:
            runtime.run(small_stream(accesses=300))
            runtime.kill_worker(0)
            runtime.run([])  # nothing new: the barrier reopens and samples
            assert runtime.total_restarts() >= 1
            assert runtime._workers[0].process.is_alive()
            if plane:
                assert runtime.health.total_quarantines() == 1
        source, restored = (
            collect_controllers(snapshots, bank_width=2) for snapshots in shipped
        )
        for name in (
            "streamed_paths", "untracked_paths", "treetop_hits", "treetop_bytes_saved"
        ):
            for shard in (0, 1):
                counter = f"interconnect.shard{shard}.{name}"
                assert restored.counter(counter).value == source.counter(counter).value
                assert source.counter(counter).value > 0
        assert shipped[1][0]["interconnect"] == shipped[0][0]["interconnect"]

    def test_injector_counters_are_an_optional_checkpoint_key(self):
        """A restored injector gets no second ``start_after`` warm-up, and
        a checkpoint written before the key existed still loads (its
        injector simply restarts at zero)."""
        fault_config = FaultConfig(seed=3, delay_rate=1.0, start_after=40)

        def shard():
            return build_shard_backend(
                "dyn", FOOTPRINT, SystemConfig(), 0, 2,
                fault_injector=FaultInjector(fault_config),
            )

        source = shard()
        for addr, now, is_write in small_stream(accesses=40, footprint=FOOTPRINT // 2):
            source.demand_access(addr, now, is_write)
        assert source.injector.stats.delays == 0  # still warming up
        payload = dump_backend_state(source)
        restored = shard()
        restore_backend_state(restored, payload)
        assert restored.injector.stats == source.injector.stats
        restored.demand_access(1, restored.busy_until, False)
        assert restored.injector.stats.delays == 1
        document = json.loads(payload)
        del document["backend"]["injector"]
        older = shard()
        restore_backend_state(older, json.dumps(document))
        assert older.injector.stats.memory_accesses == 0
        assert older.stats.memory_accesses == source.stats.memory_accesses


# ------------------------------------------------------------ failure handling
def live_shard_workers():
    return [
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    ]


def break_spec_of(monkeypatch, failing):
    """Worker *failing* is handed a spec it cannot build."""
    real_spec = ParallelShardRuntime._spec

    def broken_spec(self, index, restart_salt):
        spec = real_spec(self, index, restart_salt)
        if index == failing:
            spec = dataclasses.replace(spec, base_scheme="no_such_scheme")
        return spec

    monkeypatch.setattr(ParallelShardRuntime, "_spec", broken_spec)


def slow_builds(monkeypatch, seconds):
    """Every shard executor opened from now on (forked workers included)
    takes *seconds* longer to build."""
    real_init = ShardExecutor.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(seconds)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ShardExecutor, "__init__", slow_init)


SPAWN_SCRIPT = """
import multiprocessing

from repro.parallel import ParallelShardRuntime, run_serial_reference
from repro.utils.rng import DeterministicRng

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    rng = DeterministicRng(9)
    requests, now = [], 0
    for index in range(300):
        now += rng.randint(1, 40)
        requests.append((rng.randint(0, 127), now, index % 4 == 0))
    serial = run_serial_reference("dyn", 128, requests, num_shards=2)
    with ParallelShardRuntime("dyn", 128, None, 2, batch_size=23) as runtime:
        parallel = runtime.run(requests)
    assert parallel == serial, (parallel, serial)
    print("spawn bit-identical")
"""


class TestRuntimeFailureHandling:
    def test_failed_constructor_leaves_no_worker_behind(self, tmp_path, monkeypatch):
        """Regression: a later worker failing to start used to leak the
        ones already running (``close()`` was a no-op before ``_closed``
        existed, and the caller never got an object to close)."""
        break_spec_of(monkeypatch, 1)
        with pytest.raises(WorkerFailure, match="worker 1 failed to start"):
            ParallelShardRuntime(
                "dyn", FOOTPRINT, num_workers=3, checkpoint_dir=str(tmp_path)
            )
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline and live_shard_workers():
            time.sleep(0.05)
        assert not live_shard_workers()

    def test_failed_start_reaps_workers_never_awaited(self, tmp_path, monkeypatch):
        """All workers are started before the first ``ready`` is awaited:
        when the first one fails, the rest are mid-build and were never
        waited for -- the constructor must still take every one down."""
        break_spec_of(monkeypatch, 0)
        slow_builds(monkeypatch, 0.3)
        with pytest.raises(WorkerFailure, match="worker 0 failed to start"):
            ParallelShardRuntime(
                "dyn", FOOTPRINT, num_workers=4, checkpoint_dir=str(tmp_path)
            )
        assert not live_shard_workers()  # close() joined them: no grace period

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the build delay reaches the workers by fork inheritance",
    )
    def test_workers_are_opened_together(self, tmp_path, monkeypatch):
        """Opening a bank costs the slowest shard's build, not the sum."""
        slow_builds(monkeypatch, 0.5)

        def open_seconds(num_workers):
            start = time.perf_counter()
            with ParallelShardRuntime(
                "dyn",
                FOOTPRINT,
                num_workers=num_workers,
                checkpoint_dir=str(tmp_path / str(num_workers)),
            ):
                return time.perf_counter() - start

        one = open_seconds(1)
        assert one >= 0.5
        assert open_seconds(4) < 2.5 * one

    def test_spawned_workers_are_bit_identical_and_import_light(self, tmp_path):
        """Under ``spawn`` a worker unpickles its :class:`ShardSpec` and
        imports ``repro`` afresh; with numpy and scipy made unimportable
        in the children's environment, that import path must not need
        them.  No start-method option exists -- the script sets the
        process-wide default, as an embedding application would."""
        for blocked in ("numpy", "scipy"):
            (tmp_path / blocked).mkdir()
            (tmp_path / blocked / "__init__.py").write_text(
                f"raise ImportError('{blocked} is blocked in this test')\n"
            )
        script = tmp_path / "spawn_identity.py"
        script.write_text(SPAWN_SCRIPT)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        done = subprocess.run(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src])),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "spawn bit-identical"

    def test_failure_reason_is_an_attribute(self, tmp_path):
        assert WorkerFailure("anything").reason == "error"
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            num_workers=2,
            checkpoint_dir=str(tmp_path),
            health_policy=HealthPolicy(batch_deadline_s=0.3, join_timeout_s=2.0),
        ) as runtime:
            runtime.kill_worker(0)
            with pytest.raises(WorkerFailure) as died:
                runtime._await_reply(runtime._workers[0], deadline=True)
            assert died.value.reason == "death"
            runtime.hang_worker(1, seconds=60.0)
            runtime._workers[1].last_progress = time.perf_counter()
            with pytest.raises(WorkerFailure) as hung:
                runtime._await_reply(runtime._workers[1], deadline=True)
            assert hung.value.reason == "hang"
            # a worker that merely *mentions* hanging did not hang
            assert "hung" in str(hung.value) and "hung" not in str(died.value)

    def test_quarantined_traffic_is_dummy_padded(self, tmp_path):
        """Every access a quarantined worker serves is followed by one
        dummy path access, so the merged dummy count covers them."""
        requests = small_stream(accesses=300)
        policy = HealthPolicy(
            quarantine_cooldown=8,
            probe_batch=8,
            probe_successes=2,
            heartbeat_every=4,
            batch_deadline_s=1.0,
            join_timeout_s=2.0,
        )
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            num_workers=2,
            checkpoint_dir=str(tmp_path),
            batch_size=16,
            max_restarts=8,
            health_policy=policy,
        ) as runtime:
            runtime.hang_worker(0, seconds=120.0)
            result = runtime.run(requests, fsck=True)
            registry = collect_parallel(runtime)
        fallback = registry.counter("health.shard0.fallback_accesses").value
        assert fallback >= policy.quarantine_cooldown
        assert registry.counter("parallel.worker0.fallback_batches").value >= 1
        assert registry.counter("health.shard1.fallback_accesses").value == 0
        assert result.demand_requests == len(requests)
        assert result.dummy_accesses >= fallback
        # re-admitted as a breaker move: the hang is worker 0's one restart
        assert runtime.health.total_readmissions() >= 1
        assert runtime.worker_snapshots()[0]["counters"]["restarts"] == 1
