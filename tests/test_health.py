"""Tests for the health-state control plane (DESIGN.md section 10).

Three layers are covered:

* the :class:`~repro.health.CircuitBreaker` state machine itself --
  every edge (degrade, recover, storm-quarantine, cooldown, half-open
  probe, budget exhaustion) is pinned on fixed event sequences;
* the :class:`~repro.health.HealthControlPlane` mirroring into the
  metrics registry;
* the integrations: the sharded bank's quarantine fallback with dummy
  padding, and the parallel runtime -- whose workers run the bank's
  per-access health step, so a fault-free supervised run returns the
  bank's SimResult *and* its ``health.*`` registry, breaker trips
  included -- with its deadline enforcement: a hung worker is detected
  within the heartbeat deadline.
"""

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.controller import sharded
from repro.controller.sharded import build_bank
from repro.health import (
    CircuitBreaker,
    HealthControlPlane,
    HealthPolicy,
    HealthState,
)
from repro.observability.collect import collect_parallel
from repro.observability.metrics import MetricsRegistry
from repro.parallel import ParallelShardRuntime, run_serial_reference
from repro.parallel.merge import merge_shard_snapshots
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


def log_health_steps(monkeypatch, path):
    """Every health step a shard worker forked after this call runs (its
    bank of one's :func:`~repro.controller.sharded.health_access`) appends
    ``[shard, worker pid, state before, padding paths, state after,
    degraded after]`` to *path* as one JSON line."""
    health_access = sharded.health_access

    def logged(health, index, shard, local, now, is_write, stash_limit):
        padding = []
        dummy_path_access = shard.dummy_path_access
        shard.dummy_path_access = lambda at: padding.append(at) or dummy_path_access(at)
        before = health.state(index).value
        try:
            result = health_access(health, index, shard, local, now, is_write, stash_limit)
        finally:
            del shard.dummy_path_access
        entry = [
            shard.shard_index, os.getpid(), before, len(padding),
            health.state(index).value, shard.degraded,
        ]
        with open(path, "a") as log:
            log.write(json.dumps(entry) + "\n")
        return result

    monkeypatch.setattr(sharded, "health_access", logged)


def bank_replay(requests, num_shards, policy):
    """``build_bank(..., health_policy=policy)`` replaying *requests*, the
    way :func:`run_serial_reference` replays them: the merged result and
    the plane's ``health.*`` registry."""
    bank = build_bank("dyn", FOOTPRINT, SystemConfig(), num_shards, health_policy=policy)
    completions = [completion for completion, _ in bank.access_batch(requests)]
    bank.finalize(max(completions))
    merged = merge_shard_snapshots(
        bank.snapshot_shards(), completions, workload="parallel", scheme="dyn"
    )
    return merged, bank.health.to_registry().to_dict()


#: ``(workers, policy, breaker transitions on small_stream())``: each policy
#: trips at least one breaker at that width -- stash pressure at 2 and 4
#: shards, the latency window at 2
TRIPPING = [
    (2, HealthPolicy(stash_pressure_fraction=0.02), 3),
    (4, HealthPolicy(stash_pressure_fraction=0.01), 1),
    (2, HealthPolicy(degrade_latency_cycles=1400), 4),
]


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

    @pytest.mark.parametrize("name", ["degrade_latency_cycles", "heartbeat_every"])
    def test_negative_off_switch_refused_by_name(self, name):
        """``0`` disables either knob; a negative value is no setting.
        ``degrade_latency_cycles=-5`` was accepted and tripped ``slow`` on
        every window (both shards of a 2-shard bank degraded at event 64),
        ``heartbeat_every=-3`` was accepted too."""
        with pytest.raises(ValueError, match=name):
            HealthPolicy(**{name: -5})
        with pytest.raises(ValueError, match=name):
            HealthPolicy.parse(f"window=32,{name}=-3")
        assert getattr(HealthPolicy.parse(f"{name}=0"), name) == 0


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

    def test_state_dict_resumes_the_machine(self):
        """A breaker loaded from another's JSON-carried ``state_dict`` (a
        worker's checkpoint, its ``stats`` reply) walks on exactly as the
        original does."""
        rng = DeterministicRng(3)
        outcomes = [rng.randint(0, 9) >= 2 for _ in range(400)]

        def feed(breaker, stream):
            for ok in stream:
                if breaker.ready_to_probe:
                    breaker.begin_probe()
                breaker.record(ok, latency_cycles=7)

        original = CircuitBreaker(tight_policy(), name="shard3")
        feed(original, outcomes[:200])
        resumed = CircuitBreaker(tight_policy(), name="shard3")
        resumed.load_state_dict(json.loads(json.dumps(original.state_dict())))
        assert vars(resumed) == vars(original)
        feed(original, outcomes[200:])
        feed(resumed, outcomes[200:])
        assert vars(resumed) == vars(original)
        assert len(original.transitions) > 2


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
        assert [breaker.state for breaker in plane.breakers] == [
            HealthState.HEALTHY,
            HealthState.QUARANTINED,
        ]

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
            assert all(
                breaker.state is HealthState.HEALTHY
                for breaker in runtime.health.breakers
            )
        assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)

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

    @pytest.mark.parametrize(
        "workers, policy, transitions", TRIPPING,
        ids=["pressure-2w", "pressure-4w", "latency-2w"],
    )
    def test_workers_run_the_banks_breaker(self, tmp_path, workers, policy, transitions):
        """A fault-free, kill-free supervised run returns the SimResult and
        the ``health.*`` registry of the bank with the same policy: each
        worker feeds its own breaker per access, with the simulated latency
        and stash pressure the bank feeds.  Every policy here trips."""
        requests = small_stream()
        bank_result, bank_health = bank_replay(requests, workers, policy)
        with ParallelShardRuntime(
            "dyn",
            FOOTPRINT,
            SystemConfig(),
            workers,
            checkpoint_dir=str(tmp_path),
            batch_size=16,
            health_policy=policy,
        ) as runtime:
            result = runtime.run(requests)
            health = {
                name: entry
                for name, entry in collect_parallel(runtime).to_dict().items()
                if name.startswith("health.")
            }
        assert health == bank_health
        assert sum(
            entry["value"] for name, entry in health.items()
            if name.endswith(".transitions")
        ) == transitions
        assert dataclasses.asdict(result) == dataclasses.asdict(bank_result)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the health-step log reaches the workers by fork inheritance",
    )
    def test_sick_batches_are_padded_and_degraded_in_one_incarnation(
        self, tmp_path, monkeypatch
    ):
        """The workers obey the bank's table: in ``runtime_kill_scenario``
        worker 0 is reopened once after the kill and stays that process
        while it serves its cooldown (QUARANTINED), probes (PROBING) and is
        re-admitted (HEALTHY).  Every access whose state was padded carries
        one dummy path and no other does; after every access the backend
        runs degraded iff the breaker's state is throttled."""
        steps = tmp_path / "steps.jsonl"
        log_health_steps(monkeypatch, steps)
        runtime_kill_scenario(str(tmp_path / "ckpt"))
        processes = {state: set() for state in HealthState}
        for line in steps.read_text().splitlines():
            shard, pid, before, padding, after, degraded = json.loads(line)
            if shard == 0:
                processes[HealthState(before)].add(pid)
            assert padding == TRAFFIC[before][1], (shard, before)
            assert degraded == TRAFFIC[after][0], (shard, after)
        # worker 0 was killed before its first batch: every access it served
        # ran in the one process reopened after the kill, sick states and
        # re-admitted traffic alike
        (reopened,) = processes[HealthState.HEALTHY]
        assert processes == {
            HealthState.HEALTHY: {reopened},
            HealthState.DEGRADED: set(),
            HealthState.QUARANTINED: {reopened},
            HealthState.PROBING: {reopened},
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
    def build(self, num_shards=2, **overrides):
        policy = HealthPolicy(
            window=16,
            quarantine_cooldown=8,
            probe_batch=8,
            probe_successes=2,
            **overrides,
        )
        system = SecureSystem.build(
            "dyn", footprint_blocks=FOOTPRINT, num_shards=num_shards,
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
            completion, _ = bank.demand_access(2 * index % FOOTPRINT, now, False)
            assert completion > now
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

    def test_one_shard_plane_quarantines_pads_and_readmits(self):
        """A health policy on a lone controller builds a bank of one -- what
        every supervised shard worker runs: quarantined, each access is
        dummy-padded, and after the cooldown two probes re-admit it.  The
        CLI runs it too (``--health-policy`` without ``--shards``)."""
        system, bank = self.build(num_shards=1)
        assert bank.bank_width == 1 and bank.health is not None
        bank.quarantine_shard(0, reason="chaos")
        before = bank.stats.dummy_accesses
        padded = 0
        now = 0
        for addr in range(32):
            now += 50
            padded += bank.health.state(0).padded
            bank.demand_access(addr, now, False)
            if bank.health.state(0) is HealthState.HEALTHY:
                break
        assert bank.health.breakers[0].transition_pairs() == [
            ("healthy", "quarantined"),
            ("quarantined", "probing"),
            ("probing", "healthy"),
        ]
        assert padded >= 8  # the cooldown, then the probes
        assert bank.stats.dummy_accesses >= before + padded
        assert main(
            "run -w locality:80 -s dyn --health-policy window=32 "
            "--accesses 200 --warmup 0".split()
        ) == 0
