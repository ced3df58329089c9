"""Tests for the health-state control plane (DESIGN.md section 10).

Three layers are covered:

* the :class:`~repro.health.CircuitBreaker` state machine itself --
  every edge (degrade, recover, storm-quarantine, cooldown, half-open
  probe, budget exhaustion) is pinned on fixed event sequences;
* the :class:`~repro.health.HealthControlPlane` mirroring into the
  metrics registry;
* the integrations: the sharded bank's quarantine fallback with dummy
  padding, and the parallel runtime's deadline enforcement -- including
  the ISSUE acceptance tests that a no-fault health-supervised run is
  bit-identical to the serial reference and that a hung worker is
  detected within the heartbeat deadline.
"""

import dataclasses
import json
import multiprocessing
import time

import pytest

from repro.config import SystemConfig
from repro.health import (
    CircuitBreaker,
    HealthControlPlane,
    HealthPolicy,
    HealthState,
)
from repro.observability.collect import collect_parallel
from repro.observability.metrics import MetricsRegistry
from repro.parallel import ParallelShardRuntime, run_serial_reference
from repro.parallel.worker import ShardExecutor
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from tests.test_counter_catalogue import runtime_kill_scenario

FOOTPRINT = 128

#: DESIGN section 10's table restated as the oracle: what each state does
#: to traffic, ``state value -> (throttled, padded)``
TRAFFIC = {
    "healthy": (False, False),
    "degraded": (True, False),
    "quarantined": (True, True),
    "probing": (True, True),
}


def small_stream(accesses=400, footprint=FOOTPRINT, seed=9):
    rng = DeterministicRng(seed)
    requests = []
    now = 0
    for index in range(accesses):
        now += rng.randint(1, 40)
        requests.append((rng.randint(0, footprint - 1), now, index % 4 == 0))
    return requests


def log_applied_batches(monkeypatch, path):
    """Every batch a shard executor applies -- in this process, or in a
    worker forked after this call -- appends ``[shard, incarnation, seq, padding paths,
    degraded, size]`` to *path* as one JSON line.  Re-served batches (seq
    inside the reply window) are not applied, so not logged."""
    apply_batch = ShardExecutor._apply_batch

    def logged(executor, seq, batch):
        backend = executor.backend
        if seq <= executor.last_seq:
            yield from apply_batch(executor, seq, batch)
            return
        padding = []
        dummy_path_access = backend.dummy_path_access
        backend.dummy_path_access = lambda now: padding.append(now) or dummy_path_access(now)
        degraded = backend.degraded
        try:
            replies = list(apply_batch(executor, seq, batch))
        finally:
            del backend.dummy_path_access
        spec = executor.spec
        entry = [spec.shard_index, spec.rng_restart_salt, seq, len(padding), degraded, len(batch)]
        with open(path, "a") as log:
            log.write(json.dumps(entry) + "\n")
        yield from replies

    monkeypatch.setattr(ShardExecutor, "_apply_batch", logged)


# ------------------------------------------------------------------ policy
class TestHealthPolicy:
    def test_parse_empty_is_defaults(self):
        assert HealthPolicy.parse("") == HealthPolicy()

    def test_parse_overrides_ints_and_floats(self):
        policy = HealthPolicy.parse(
            "window=32, probe_batch=8,batch_deadline_s=1.5"
        )
        assert policy.window == 32
        assert policy.probe_batch == 8
        assert policy.batch_deadline_s == 1.5
        # untouched keys keep their defaults
        assert policy.quarantine_cooldown == HealthPolicy().quarantine_cooldown

    def test_parse_unknown_key_raises(self):
        with pytest.raises(ValueError, match="known keys"):
            HealthPolicy.parse("wndow=32")

    def test_parse_missing_equals_raises(self):
        with pytest.raises(ValueError):
            HealthPolicy.parse("window")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"degrade_failure_rate": 1.5},
            {"degrade_failure_rate": 0.9, "quarantine_failure_rate": 0.5},
            {"probe_successes": 9, "probe_batch": 8},
            {"stash_pressure_fraction": 0.0},
            {"quarantine_cooldown": -1},
            {"join_timeout_s": 0.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)


# ----------------------------------------------------------------- breaker
def tight_policy(**overrides):
    defaults = dict(
        window=8,
        degrade_failure_rate=0.25,
        quarantine_failure_rate=0.5,
        recover_windows=1,
        quarantine_cooldown=4,
        probe_batch=4,
        probe_successes=2,
    )
    defaults.update(overrides)
    return HealthPolicy(**defaults)


class TestCircuitBreaker:
    def test_traffic_table(self):
        assert {s.value: (s.throttled, s.padded) for s in HealthState} == TRAFFIC
        assert [state.code for state in HealthState] == [0, 1, 2, 3]
        assert HealthState("probing") is HealthState.PROBING

    def test_one_feed_counts_by_state(self):
        breaker = CircuitBreaker(tight_policy())
        breaker.record(False, latency_cycles=5)  # a window event
        assert (breaker.fallbacks_total, breaker.probes_total) == (0, 0)
        breaker.record_hard_failure("death")
        breaker.record(True)
        breaker.record(False)  # a fallback, and a fault on the fallback path
        assert breaker.fallbacks_total == 2
        assert breaker.hard_failures == 2
        assert breaker.state is HealthState.QUARANTINED
        for _ in range(2):
            breaker.record(True)
        assert breaker.ready_to_probe  # the fallback fault left the cooldown running
        breaker.begin_probe()
        breaker.record(True)
        assert (breaker.fallbacks_total, breaker.probes_total) == (4, 1)

    def test_failure_window_degrades(self):
        breaker = CircuitBreaker(tight_policy())
        for index in range(8):
            breaker.record(index >= 2)
        assert breaker.state is HealthState.DEGRADED
        assert breaker.transition_pairs() == [("healthy", "degraded")]
        assert breaker.transitions[0].reason == "failure_window"

    def test_clean_window_recovers(self):
        breaker = CircuitBreaker(tight_policy())
        for _ in range(4):
            breaker.record(False)
        for _ in range(4):
            breaker.record(True)
        # 50% failures: straight to quarantine, not degraded
        assert breaker.state is HealthState.QUARANTINED

        breaker = CircuitBreaker(tight_policy())
        for index in range(8):
            breaker.record(index >= 2)
        assert breaker.state is HealthState.DEGRADED
        for _ in range(8):
            breaker.record(True)
        assert breaker.state is HealthState.HEALTHY
        assert breaker.transition_pairs()[-1] == ("degraded", "healthy")

    def test_recover_windows_requires_consecutive_clean(self):
        breaker = CircuitBreaker(tight_policy(recover_windows=2))
        for index in range(8):
            breaker.record(index >= 2)
        assert breaker.state is HealthState.DEGRADED
        for _ in range(8):  # one clean window: not yet
            breaker.record(True)
        assert breaker.state is HealthState.DEGRADED
        for _ in range(8):  # second consecutive clean window: recovered
            breaker.record(True)
        assert breaker.state is HealthState.HEALTHY

    def test_latency_window_degrades(self):
        breaker = CircuitBreaker(tight_policy(degrade_latency_cycles=10))
        for _ in range(8):
            breaker.record(True, latency_cycles=100)
        assert breaker.state is HealthState.DEGRADED
        assert breaker.transitions[0].reason == "latency_window"

    def test_stash_pressure_degrades_immediately(self):
        breaker = CircuitBreaker(tight_policy())
        breaker.record_pressure()
        assert breaker.state is HealthState.DEGRADED
        assert breaker.transitions[0].reason == "stash_pressure"

    def test_hard_failure_quarantines(self):
        breaker = CircuitBreaker(tight_policy())
        breaker.record_hard_failure("death")
        assert breaker.state is HealthState.QUARANTINED
        assert breaker.hard_failures == 1
        assert breaker.quarantines == 1

    def test_cooldown_gates_probing(self):
        breaker = CircuitBreaker(tight_policy())
        breaker.record_hard_failure("death")
        assert not breaker.ready_to_probe
        for _ in range(4):
            breaker.record(True)
        assert breaker.ready_to_probe
        breaker.begin_probe()
        assert breaker.state is HealthState.PROBING

    def test_begin_probe_outside_quarantine_rejected(self):
        breaker = CircuitBreaker(tight_policy())
        with pytest.raises(ValueError):
            breaker.begin_probe()

    def _quarantined_and_probing(self):
        breaker = CircuitBreaker(tight_policy())
        breaker.record_hard_failure("death")
        for _ in range(4):
            breaker.record(True)
        breaker.begin_probe()
        return breaker

    def test_probe_streak_readmits(self):
        breaker = self._quarantined_and_probing()
        breaker.record(True)
        assert breaker.state is HealthState.PROBING
        breaker.record(True)
        assert breaker.state is HealthState.HEALTHY
        assert breaker.readmissions == 1
        assert breaker.transition_pairs()[-1] == ("probing", "healthy")

    def test_probe_failure_requarantines(self):
        breaker = self._quarantined_and_probing()
        breaker.record(True)
        breaker.record(False)
        assert breaker.state is HealthState.QUARANTINED
        assert breaker.transitions[-1].reason == "probe_failed"
        assert breaker.quarantines == 2
        # the new quarantine restarts the cooldown
        assert not breaker.ready_to_probe

    def test_probe_budget_exhaustion_requarantines(self):
        # successes never consecutive enough: alternate would fail on the
        # first False, so use probe_successes > achievable streak instead.
        breaker = CircuitBreaker(tight_policy(probe_batch=3, probe_successes=3))
        breaker.record_hard_failure("death")
        for _ in range(4):
            breaker.record(True)
        breaker.begin_probe()
        breaker.record(True)
        breaker.record(True)
        # third probe fails: batch exhausted via the failure edge
        breaker.record(False)
        assert breaker.state is HealthState.QUARANTINED

    def test_deterministic_trajectory(self):
        def drive():
            breaker = CircuitBreaker(tight_policy())
            rng = DeterministicRng(3)
            for _ in range(200):
                if breaker.ready_to_probe:
                    breaker.begin_probe()
                breaker.record(rng.randint(0, 9) >= 2)
            return breaker.transition_pairs(), breaker.state

        assert drive() == drive()


# ------------------------------------------------------------------- plane
class TestHealthControlPlane:
    def test_gauges_mirror_states(self):
        plane = HealthControlPlane(2, tight_policy())
        assert plane.registry.gauge("health.shard0.state").value == 0
        plane.record_hard_failure(1, "death")
        assert plane.registry.gauge("health.shard1.state").value == 2
        assert (
            plane.registry.counter(
                "health.transitions.healthy_to_quarantined"
            ).value
            == 1
        )
        assert plane.quarantined() == [1]
        assert not plane.all_healthy

    def test_readmission_counted(self):
        plane = HealthControlPlane(1, tight_policy())
        plane.record_hard_failure(0, "death")
        for _ in range(4):
            plane.record_access(0, True)
        assert plane.begin_probe_if_ready(0)
        plane.record_access(0, True)
        plane.record_access(0, True)
        assert plane.state(0) is HealthState.HEALTHY
        assert plane.total_quarantines() == 1
        assert plane.total_readmissions() == 1
        assert plane.total_transitions() == 3

    def test_to_registry_copies_only_health_names(self):
        """The walk writes ``health.*`` and nothing else, into a registry
        that may already hold a runtime's ``parallel.*`` instruments."""
        plane = HealthControlPlane(1, tight_policy())
        plane.record_hard_failure(0, "death")
        shared = MetricsRegistry()
        shared.counter("parallel.worker0.batches").inc()
        assert plane.to_registry(shared) is shared
        added = {instrument.name for instrument in shared} - {
            "parallel.worker0.batches"
        }
        assert added == {instrument.name for instrument in plane.to_registry()}
        assert "health.shard0.state" in added
        assert all(name.startswith("health.") for name in added)
        assert shared.value("parallel.worker0.batches") == 1


# ---------------------------------------------------- parallel integration
class TestRuntimeHealth:
    def test_no_fault_run_bit_identical_to_serial(self, tmp_path):
        """ISSUE acceptance: the health plane must be pure supervision --
        a storm-free run merges to the exact serial SimResult."""
        requests = small_stream()
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
            batch_size=16,
            health_policy=HealthPolicy(heartbeat_every=4),
        ) as runtime:
            parallel = runtime.run(requests, fsck=True)
            assert runtime.health.all_healthy
        assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)

    def test_health_policy_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint"):
            ParallelShardRuntime(
                "dyn", FOOTPRINT, num_workers=2, health_policy=HealthPolicy()
            )

    def test_hung_worker_detected_within_deadline(self, tmp_path):
        """ISSUE acceptance: a worker stuck mid-batch trips the deadline,
        is quarantined, and the run still conserves every access."""
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
            started = time.perf_counter()
            result = runtime.run(requests, fsck=True)
            elapsed = time.perf_counter() - started
            hangs = [snap["counters"]["hangs"] for snap in runtime.worker_snapshots()]
            assert sum(hangs) >= 1
            assert runtime.health.total_quarantines() >= 1
            # detection is deadline-bounded, not sleep-bounded: the run
            # must finish far below the 120 s hang it was injected with
            assert elapsed < 60.0
        assert result.demand_requests == len(requests)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the executor log reaches the workers by fork inheritance",
    )
    def test_sick_batches_are_padded_and_degraded_in_one_incarnation(
        self, tmp_path, monkeypatch
    ):
        """The runtime obeys the bank's table: in ``runtime_kill_scenario``
        worker 0 is reopened once after the kill and stays that process
        while it serves its cooldown (QUARANTINED), probes (PROBING) and is
        re-admitted (HEALTHY).  Every batch applied while its breaker is
        padded carries one dummy path per request and runs degraded; every
        healthy batch does neither."""
        applied = tmp_path / "applied.jsonl"
        log_applied_batches(monkeypatch, applied)
        sent = {}
        send = ParallelShardRuntime._send

        def logged_send(runtime, worker, seq, positions, command):
            sent[worker.index, worker.restarts, seq] = runtime.health.state(worker.index)
            send(runtime, worker, seq, positions, command)

        monkeypatch.setattr(ParallelShardRuntime, "_send", logged_send)
        runtime_kill_scenario(str(tmp_path / "ckpt"))
        incarnations = {state: set() for state in HealthState}
        for line in applied.read_text().splitlines():
            shard, incarnation, seq, padding, degraded, size = json.loads(line)
            state = sent[shard, incarnation, seq]
            if shard == 0:
                incarnations[state].add(incarnation)
            throttled, padded = TRAFFIC[state.value]
            assert (padding, degraded) == (size if padded else 0, throttled), (
                state, incarnation
            )
        # worker 0 was killed before its first batch: everything it applied
        # ran in the one process reopened after the kill (salt 1), sick
        # states and re-admitted traffic alike
        assert incarnations == {
            HealthState.HEALTHY: {1},
            HealthState.DEGRADED: set(),
            HealthState.QUARANTINED: {1},
            HealthState.PROBING: {1},
        }

    def test_collect_parallel_surfaces_health(self, tmp_path):
        requests = small_stream(accesses=200)
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
            runtime.hang_worker(1, seconds=120.0)
            runtime.run(requests)
            registry = collect_parallel(runtime)
        assert registry.counter("parallel.worker1.hangs").value >= 1
        assert registry.counter("parallel.worker1.restarts").value >= 1
        # healthy worker's counters are forced to exist at zero
        assert registry.counter("parallel.worker0.hangs").value == 0
        assert registry.gauge("health.shard1.state").value in (0, 1, 2, 3)
        assert registry.counter("health.shard1.hard_failures").value >= 1


# -------------------------------------------------------- bank integration
class TestBankQuarantine:
    def build(self, **overrides):
        policy = HealthPolicy(
            window=16,
            quarantine_cooldown=8,
            probe_batch=8,
            probe_successes=2,
            **overrides,
        )
        system = SecureSystem.build(
            "dyn", footprint_blocks=FOOTPRINT, num_shards=2,
            health_policy=policy,
        )
        return system, system.backend

    def test_quarantined_shard_serves_padded_fallback(self):
        system, bank = self.build()
        bank.quarantine_shard(0, reason="chaos")
        assert bank.health.state(0) is HealthState.QUARANTINED
        before = bank.stats.dummy_accesses
        now = 0
        # addresses congruent 0 mod 2 route to the quarantined shard
        for index in range(8):
            now += 50
            result = bank.demand_access(2 * index % FOOTPRINT, now, False)
            assert result.completion_cycle > now
        breaker = bank.health.breakers[0]
        assert breaker._fallback_served == 8
        # every fallback access carries a dummy-path padding access so the
        # quarantined channel keeps the uniform two-path shape
        assert bank.stats.dummy_accesses >= before + 8

    def test_cooldown_then_probe_readmits(self):
        system, bank = self.build()
        bank.quarantine_shard(0, reason="chaos")
        now = 0
        for _ in range(32):
            now += 50
            bank.demand_access(0, now, False)
            if bank.health.state(0) is HealthState.HEALTHY:
                break
        assert bank.health.state(0) is HealthState.HEALTHY
        assert bank.health.total_readmissions() == 1
        pairs = bank.health.breakers[0].transition_pairs()
        assert pairs == [
            ("healthy", "quarantined"),
            ("quarantined", "probing"),
            ("probing", "healthy"),
        ]

    def test_healthy_shard_unaffected(self):
        system, bank = self.build()
        bank.quarantine_shard(0, reason="chaos")
        now = 0
        for index in range(8):
            now += 50
            bank.demand_access((2 * index + 1) % FOOTPRINT, now, False)
        assert bank.health.state(1) is HealthState.HEALTHY
        assert bank.health.breakers[1]._fallback_served == 0

    def test_quarantine_without_plane_rejected(self):
        system = SecureSystem.build(
            "dyn", footprint_blocks=FOOTPRINT, num_shards=2
        )
        with pytest.raises(ValueError, match="health plane"):
            system.backend.quarantine_shard(0)

    def test_health_policy_single_shard_rejected(self):
        with pytest.raises(ValueError):
            SecureSystem.build(
                "dyn",
                footprint_blocks=FOOTPRINT,
                num_shards=1,
                health_policy=HealthPolicy(),
            )
