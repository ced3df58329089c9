"""Chaos harness: seed-deterministic multi-fault storms, cross-layer.

The resilience stack has three enforcement layers, and no single fault
class exercises all of them: bit-flips and stale-bucket replays act at
the Merkle-verified path-read layer (the :class:`~repro.faults.resilient.
ResilientKVStore` ladder), worker kills and hangs act at the process
boundary (the :class:`~repro.parallel.runtime.ParallelShardRuntime`
health plane), and transient/delay faults act at the memory-timing layer
(the in-process :class:`~repro.controller.sharded.ShardedORAMBank`
breakers).  A chaos *scenario* therefore composes one storm per layer
from a single seed, and the combined report gates the three invariants
the ROADMAP's production target promises:

* **zero lost writes** -- every KV read matches its shadow, and the
  parallel merge conserves every demand request through kills, hangs,
  quarantines, and fallback routing;
* **bounded recovery** -- a hung worker is detected within the
  configured heartbeat deadline (the failure mode that used to deadlock
  the front-end's reply poll forever) and every quarantined shard is
  re-admitted through the half-open probe path;
* **shape preservation** -- the leaf-uniformity chi-squared gate holds
  while shards bounce between HEALTHY / DEGRADED / QUARANTINED /
  PROBING, because fallback and probe traffic is padded with dummy-path
  accesses instead of changing shape.

Scenario grammar (DESIGN.md section 10): a :class:`ChaosScenario` is a
frozen value -- per-layer op counts, width and footprint; the fault rates,
write mix and batching are this module's constants; its storm is
:func:`default_storm`'s :class:`ChaosEvent` marks ``(at_op, action,
shard)`` with actions ``kill`` / ``hang``, scaled onto each layer's
stream.  Everything downstream of the seed
is deterministic except wall-clock (kills and hangs race the scheduler,
so *which batch* dies varies; the invariants above hold regardless --
that is the point of the harness).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import ORAMConfig, SystemConfig
from repro.faults.fsck import run_fsck
from repro.faults.injector import FaultConfig, FaultInjector
from repro.health import HealthPolicy
from repro.utils.rng import DeterministicRng

_ACTIONS = ("kill", "hang")

#: percent of each parallel/bank request stream that are writes
WRITE_PERCENT = 50
#: per-access fault rates (the bank storm quadruples the transient rate,
#: capped at 0.2) and the cycles a delayed response costs
TRANSIENT_RATE = 0.02
DELAY_RATE = 0.01
BITFLIP_RATE = 0.004
REPLAY_RATE = 0.002
DELAY_CYCLES = 200
#: leading accesses every injector lets through fault-free (warm-up)
START_AFTER = 64
#: the parallel storm's batching
BATCH_SIZE = 16
MAX_INFLIGHT = 2
#: how long a ``hang`` stalls a worker's command loop
HANG_SECONDS = 30.0


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled disturbance inside a storm.

    ``kill`` terminates a worker process, ``hang`` stalls its command
    loop for :data:`HANG_SECONDS` (detectable only through deadline
    enforcement).  The bank storm maps every action onto an operator
    quarantine, since banks have no processes to kill.
    """

    at_op: int
    action: str
    shard: int

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}")
        if self.at_op < 0 or self.shard < 0:
            raise ValueError("at_op and shard must be non-negative")


def default_storm(ops: int, num_shards: int) -> Tuple[ChaosEvent, ...]:
    """The canonical kill + hang + kill storm, scaled to the stream."""
    return (
        ChaosEvent(ops // 4, "kill", 0 % num_shards),
        ChaosEvent(ops // 2, "hang", 1 % num_shards),
        ChaosEvent((5 * ops) // 8, "kill", 2 % num_shards),
    )


def chaos_policy() -> HealthPolicy:
    """Health policy tuned for storm tests: tight deadlines, short
    cooldowns, so quarantine -> probe -> re-admit cycles complete inside
    a few thousand accesses instead of a production-sized window."""
    return HealthPolicy(
        window=32,
        quarantine_cooldown=16,
        probe_batch=8,
        probe_successes=2,
        heartbeat_every=8,
        batch_deadline_s=1.5,
        join_timeout_s=2.0,
    )


@dataclass(frozen=True)
class ChaosScenario:
    """One composed, seed-deterministic multi-fault storm."""

    name: str = "storm"
    seed: int = 11
    scheme: str = "dyn"
    num_shards: int = 4
    footprint_blocks: int = 256
    parallel_ops: int = 8_000
    kv_ops: int = 4_000
    bank_ops: int = 8_000

    def __post_init__(self) -> None:
        if min(self.parallel_ops, self.kv_ops, self.bank_ops) < 0:
            raise ValueError("op counts must be non-negative")
        if self.num_shards < 2:
            raise ValueError("a storm needs at least two shards")

    @property
    def total_ops(self) -> int:
        return self.parallel_ops + self.kv_ops + self.bank_ops

    def storm_events(self, ops: int) -> Tuple[ChaosEvent, ...]:
        """:func:`default_storm` scaled onto a stream of *ops* requests."""
        events = default_storm(self.parallel_ops, self.num_shards)
        reference = max(self.parallel_ops, 1)
        return tuple(
            ChaosEvent(
                min(event.at_op * ops // reference, max(ops - 1, 0)),
                event.action,
                event.shard % self.num_shards,
            )
            for event in events
            if ops > 0
        )

    def requests(self, ops: int, salt: int) -> List[Tuple[int, int, bool]]:
        """A seeded ``(addr, now, is_write)`` stream for one layer."""
        rng = DeterministicRng(self.seed).fork(salt)
        return [
            (
                rng.randbelow(self.footprint_blocks),
                index * 3,
                rng.randbelow(100) < WRITE_PERCENT,
            )
            for index in range(ops)
        ]


# ---------------------------------------------------------------- KV storm
def run_kv_storm(scenario: ChaosScenario) -> Dict:
    """Bit-flip / replay / transient / delay storm on the resilient store.

    Every read is checked against a shadow dict as it happens and a final
    sweep re-reads every acknowledged key: *zero lost writes* is literal.
    """
    from repro.faults.resilient import ResilientKVStore

    config = ORAMConfig(levels=6, bucket_size=4, stash_blocks=60, utilization=0.5)
    store = ResilientKVStore(
        config,
        fault_config=FaultConfig(
            seed=scenario.seed + 1,
            bitflip_rate=BITFLIP_RATE,
            replay_rate=REPLAY_RATE,
            transient_rate=TRANSIENT_RATE,
            delay_rate=DELAY_RATE,
            delay_cycles=DELAY_CYCLES,
            start_after=START_AFTER,
        ),
        seed=scenario.seed,
    )
    rng = DeterministicRng(scenario.seed).fork(0xC4A0)
    shadow: Dict[int, bytes] = {}
    mismatches = 0
    begin = time.perf_counter()
    for index in range(scenario.kv_ops):
        key = rng.randbelow(store.capacity)
        op = rng.randbelow(100)
        if op < 55:
            value = bytes([index % 251]) * (1 + rng.randbelow(8))
            store.put(key, value)
            shadow[key] = value
        elif op < 95:
            if store.get(key) != shadow.get(key):
                mismatches += 1
        else:
            store.delete(key)
            shadow.pop(key, None)
    for key, value in shadow.items():
        if store.get(key) != value:
            mismatches += 1
    audit = run_fsck(store.oram)
    return {
        "ops": scenario.kv_ops,
        "elapsed_s": time.perf_counter() - begin,
        "mismatches": mismatches,
        "live_keys": len(shadow),
        "faults_injected": store.fault_stats.total_injected,
        "retries": store.recovery.retries,
        "recoveries": store.recovery.recoveries,
        "fsck_clean": audit.ok,
        "zero_lost": mismatches == 0 and audit.ok,
    }


# ---------------------------------------------------------- parallel storm
def run_parallel_storm(
    scenario: ChaosScenario,
    policy: Optional[HealthPolicy] = None,
) -> Dict:
    """Kill + hang + transient/delay storm on the process-parallel runtime.

    The request stream is cut at every event mark; events fire between
    segments (a kill terminates the worker, a hang stalls it), and the
    following segment must flow through detection, quarantine, fallback
    routing, and probe re-admission.  Worker stats are cumulative across
    segments, so the final merged result's ``demand_requests`` equals the
    whole stream length exactly when no access was lost or double-counted.
    """
    from repro.parallel.runtime import ParallelShardRuntime

    policy = policy or chaos_policy()
    requests = scenario.requests(scenario.parallel_ops, salt=0x9A11)
    events = scenario.storm_events(len(requests))
    marks = sorted({event.at_op for event in events if 0 < event.at_op < len(requests)})
    bounds = [0] + marks + [len(requests)]
    fired: List[str] = []
    segment_times: List[float] = []
    hang_segment_s = 0.0
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        with ParallelShardRuntime(
            scenario.scheme,
            scenario.footprint_blocks,
            SystemConfig(seed=scenario.seed),
            scenario.num_shards,
            checkpoint_dir=scratch,
            batch_size=BATCH_SIZE,
            max_inflight=MAX_INFLIGHT,
            max_restarts=4 * max(len(events), 1) + 2,
            health_policy=policy,
            fault_config=FaultConfig(
                seed=scenario.seed + 2,
                transient_rate=TRANSIENT_RATE,
                delay_rate=DELAY_RATE,
                delay_cycles=DELAY_CYCLES,
                start_after=START_AFTER,
            ),
        ) as runtime:
            result = None
            for start, end in zip(bounds, bounds[1:]):
                segment_hangs = False
                for event in events:
                    if event.at_op != start:
                        continue
                    if event.action == "kill":
                        runtime.kill_worker(event.shard)
                    else:
                        runtime.hang_worker(event.shard, HANG_SECONDS)
                        segment_hangs = True
                    fired.append(f"{event.action}@{start}:shard{event.shard}")
                final = end == len(requests)
                segment_begin = time.perf_counter()
                result = runtime.run(requests[start:end], fsck=final)
                segment_s = time.perf_counter() - segment_begin
                segment_times.append(segment_s)
                if segment_hangs:
                    hang_segment_s = max(hang_segment_s, segment_s)
            health, walk = runtime.health, runtime.worker_snapshots()
            states = [health.state(i) for i in range(scenario.num_shards)]
            report = {
                "ops": len(requests),
                "elapsed_s": time.perf_counter() - begin,
                "events": fired,
                "demand_requests": result.demand_requests if result else 0,
                "conserved": bool(result) and result.demand_requests == len(requests),
                "hangs": sum(snap["counters"]["hangs"] for snap in walk),
                "restarts": [snap["counters"]["restarts"] for snap in walk],
                "quarantines": health.total_quarantines(),
                "readmissions": health.total_readmissions(),
                "final_states": [state.value for state in states],
                "all_readmitted": not any(state.padded for state in states),
                "hang_segment_s": hang_segment_s,
                "segment_s": segment_times,
            }
    expected_hangs = sum(1 for event in events if event.action == "hang")
    report["hangs_detected"] = report["hangs"] >= expected_hangs
    # Bounded recovery: a hang segment may legitimately pay the deadline
    # plus process teardown/respawn, but never the old unbounded poll.
    report["recovery_bounded"] = (
        expected_hangs == 0
        or hang_segment_s <= policy.batch_deadline_s + 10 * policy.join_timeout_s + 30
    )
    return report


# -------------------------------------------------------------- bank storm
def run_bank_storm(
    scenario: ChaosScenario, policy: Optional[HealthPolicy] = None
) -> Dict:
    """Transient/delay storm + forced quarantines on the in-process bank.

    A trace recorder sees every path access the whole time, and each
    window of the adversary's leaf sequence must pass the chi-squared
    gate through DEGRADED throttling, quarantine fallback padding, and
    probing.
    """
    from repro.observability import InMemoryRecorder
    from repro.security.statistics import adversary_view, windowed_uniformity
    from repro.sim.system import SecureSystem

    policy = policy or chaos_policy()
    config = SystemConfig(seed=scenario.seed)
    per_shard = (
        scenario.footprint_blocks + scenario.num_shards - 1
    ) // scenario.num_shards
    # Storm-level transient rate: high enough to trip DEGRADED windows
    # (rate > degrade_failure_rate) without reaching the quarantine storm
    # threshold -- forced quarantines come from the events instead.
    system = SecureSystem.build(
        scenario.scheme,
        scenario.footprint_blocks,
        config,
        fault_injector=FaultInjector(
            FaultConfig(
                seed=scenario.seed + 3,
                transient_rate=min(4 * TRANSIENT_RATE, 0.2),
                delay_rate=DELAY_RATE,
                delay_cycles=DELAY_CYCLES,
                start_after=START_AFTER,
            )
        ),
        num_shards=scenario.num_shards,
        health_policy=policy,
    )
    bank = system.backend
    recorder = system.attach_recorder(InMemoryRecorder())
    requests = scenario.requests(scenario.bank_ops, salt=0xBA0C)
    trips = {
        event.at_op: event.shard for event in scenario.storm_events(len(requests))
    }
    begin = time.perf_counter()
    for index, (addr, now, is_write) in enumerate(requests):
        shard = trips.get(index)
        if shard is not None and not bank.health.state(shard).padded:
            bank.quarantine_shard(shard, reason="chaos")
        bank.demand_access(addr, now, is_write)
    windows = windowed_uniformity(
        [leaf for _, leaf in adversary_view(recorder.records)],
        config.oram.scaled_to_footprint(per_shard).num_leaves,
        window=1024,
    )
    health = bank.health
    states = [health.state(i) for i in range(scenario.num_shards)]
    flagged = len(windows.flagged)
    return {
        "ops": len(requests),
        "elapsed_s": time.perf_counter() - begin,
        "quarantines": health.total_quarantines(),
        "readmissions": health.total_readmissions(),
        "transitions": health.total_transitions(),
        "final_states": [state.value for state in states],
        "all_readmitted": not any(state.padded for state in states),
        "uniformity_windows": len(windows.checks),
        "uniformity_flagged": flagged,
        "leaf_uniform": windows.healthy,
    }


# ----------------------------------------------------------------- compose
@dataclass
class ChaosReport:
    """The combined verdict of one cross-layer storm."""

    scenario: ChaosScenario
    kv: Dict = field(default_factory=dict)
    parallel: Dict = field(default_factory=dict)
    bank: Dict = field(default_factory=dict)

    @property
    def zero_lost(self) -> bool:
        return bool(self.kv.get("zero_lost", True)) and bool(
            self.parallel.get("conserved", True)
        )

    @property
    def all_readmitted(self) -> bool:
        return bool(self.parallel.get("all_readmitted", True)) and bool(
            self.bank.get("all_readmitted", True)
        )

    @property
    def leaf_uniform(self) -> bool:
        return bool(self.bank.get("leaf_uniform", True))

    @property
    def hangs_detected(self) -> bool:
        return bool(self.parallel.get("hangs_detected", True)) and bool(
            self.parallel.get("recovery_bounded", True)
        )

    @property
    def ok(self) -> bool:
        return (
            self.zero_lost
            and self.all_readmitted
            and self.leaf_uniform
            and self.hangs_detected
        )

    def as_dict(self) -> Dict:
        return {
            "scenario": asdict(self.scenario),
            "kv": self.kv,
            "parallel": self.parallel,
            "bank": self.bank,
            "gates": {
                "zero_lost": self.zero_lost,
                "all_readmitted": self.all_readmitted,
                "leaf_uniform": self.leaf_uniform,
                "hangs_detected": self.hangs_detected,
            },
            "pass": self.ok,
        }

    def render(self) -> str:
        gate = lambda flag: "PASS" if flag else "FAIL"  # noqa: E731
        scenario = self.scenario
        ran = sum(layer["ops"] for layer in (self.kv, self.parallel, self.bank) if layer)
        lines = [
            f"chaos storm '{scenario.name}' "
            f"(seed {scenario.seed}, {scenario.num_shards} shards, {ran} ops run; "
            f"the {scenario.total_ops}-op scenario splits {scenario.parallel_ops}/"
            f"{scenario.kv_ops}/{scenario.bank_ops} over parallel/kv/bank)"
        ]
        if self.kv:
            lines.append(
                f"  kv layer: {self.kv['ops']} ops, "
                f"{self.kv['faults_injected']} faults, "
                f"{self.kv['retries']} retries, "
                f"{self.kv['recoveries']} recoveries, "
                f"{self.kv['mismatches']} mismatches"
            )
        if self.parallel:
            lines.append(
                f"  parallel layer: {self.parallel['ops']} ops, "
                f"events {self.parallel['events']}, "
                f"{self.parallel['hangs']} hangs, "
                f"{self.parallel['quarantines']} quarantines, "
                f"{self.parallel['readmissions']} re-admissions, "
                f"states {self.parallel['final_states']}"
            )
        if self.bank:
            lines.append(
                f"  bank layer: {self.bank['ops']} ops, "
                f"{self.bank['quarantines']} quarantines, "
                f"{self.bank['readmissions']} re-admissions, "
                f"{self.bank['uniformity_flagged']}/"
                f"{self.bank['uniformity_windows']} uniformity windows flagged"
            )
        lines.append(
            f"  gates: zero_lost={gate(self.zero_lost)} "
            f"all_readmitted={gate(self.all_readmitted)} "
            f"leaf_uniform={gate(self.leaf_uniform)} "
            f"hang_detection={gate(self.hangs_detected)}"
        )
        lines.append(f"  verdict: {gate(self.ok)}")
        return "\n".join(lines)


#: the storm's layers, in the order :func:`run_chaos` runs them
CHAOS_LAYERS: Tuple[str, ...] = ("kv", "parallel", "bank")


def check_chaos_layers(layers: Tuple[str, ...]) -> None:
    """Refuse a layer name the storm does not have (``ValueError``)."""
    unknown = set(layers) - set(CHAOS_LAYERS)
    if unknown:
        raise ValueError(f"unknown chaos layers: {sorted(unknown)}")


def run_chaos(
    scenario: Optional[ChaosScenario] = None,
    policy: Optional[HealthPolicy] = None,
    layers: Tuple[str, ...] = CHAOS_LAYERS,
) -> ChaosReport:
    """Run one composed storm; each named layer gets its own sub-storm."""
    scenario = scenario or ChaosScenario()
    check_chaos_layers(layers)
    report = ChaosReport(scenario)
    if "kv" in layers and scenario.kv_ops:
        report.kv = run_kv_storm(scenario)
    if "parallel" in layers and scenario.parallel_ops:
        report.parallel = run_parallel_storm(scenario, policy)
    if "bank" in layers and scenario.bank_ops:
        report.bank = run_bank_storm(scenario, policy)
    return report
