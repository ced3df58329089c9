"""Per-shard circuit breakers: the health state machine itself.

A :class:`CircuitBreaker` classifies one shard (a bank channel or a
parallel worker) into four states:

* **HEALTHY** -- full-rate routing, no mitigation active;
* **DEGRADED** -- the shard still serves traffic but its super-block
  merges and prefetcher are throttled (they amplify stash pressure and
  queueing); entered on a tripped failure-rate / latency window or a
  stash-pressure signal, left after clean windows;
* **QUARANTINED** -- the shard is not trusted with demand traffic.  The
  owner routes its addresses through a serial fallback path with
  dummy-access padding (see the bank / parallel runtime integrations);
  entered on a hard failure (worker death, hung heartbeat, deadline
  violation) or a failure storm;
* **PROBING** -- half-open: a bounded batch of probe accesses runs
  against the shard; enough consecutive successes re-admit it, any
  failure sends it back to quarantine.

What a state does to traffic is answered here, once, by
:attr:`HealthState.throttled` and :attr:`HealthState.padded`; what an
access outcome counts as is answered by the breaker's one feed,
:meth:`CircuitBreaker.record`.  Owners (the bank, the parallel runtime)
read both and spell out no state switch of their own.

Every decision is driven by *event counts* (windows of recorded
successes/failures, cooldown access counts, probe budgets) -- never by
wall-clock time -- so a fixed access sequence walks a fixed state
trajectory and tests can pin transitions exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Tuple


class HealthState(enum.Enum):
    """The four health states of one shard, and what each does to traffic.

    Attributes:
        value: the state's name (``"healthy"`` ..), how it crosses a
            process boundary.
        code: stable numeric code for gauges (0 = healthy .. 3 = probing).
        throttled: the shard runs degraded -- super-block merges
            suspended, traditional prefetches shed, a reduced batch quota
            / inflight cap.
        padded: every access of the shard is followed by one dummy path
            access (the fallback and probe traffic of a sick shard), so it
            keeps the fixed two-path shape.
    """

    # (value, code, throttled, padded)
    HEALTHY = ("healthy", 0, False, False)
    DEGRADED = ("degraded", 1, True, False)
    QUARANTINED = ("quarantined", 2, True, True)
    PROBING = ("probing", 3, True, True)

    def __new__(cls, value: str, code: int, throttled: bool, padded: bool):
        self = object.__new__(cls)
        self._value_ = value
        self.code = code
        self.throttled = throttled
        self.padded = padded
        return self


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the health state machine and its enforcement deadlines.

    Attributes:
        window: accesses per breaker evaluation window.
        degrade_failure_rate: windowed failure fraction at or above which
            a HEALTHY shard enters DEGRADED.
        quarantine_failure_rate: windowed failure fraction at or above
            which a shard (healthy or degraded) is QUARANTINED outright
            -- the fault-storm trip.
        degrade_latency_cycles: mean per-access latency (cycles) over a
            window above which the shard degrades; ``0`` disables the
            latency trip.
        recover_windows: consecutive clean windows (no trip) required to
            leave DEGRADED.
        quarantine_cooldown: fallback-served accesses a quarantined
            shard sits out before it may be probed.
        probe_batch: maximum probe accesses per half-open episode; the
            budget bounds how much demand traffic a sick shard can see.
        probe_successes: consecutive successful probes that re-admit the
            shard (must be <= probe_batch).
        stash_pressure_fraction: stash occupancy fraction that counts as
            a pressure signal and degrades the shard immediately.
        heartbeat_every: accesses between worker heartbeat replies in
            the parallel runtime (0 disables heartbeats).
        batch_deadline_s: wall-clock seconds without progress (ack or
            heartbeat) after which an in-flight parallel worker is
            declared hung and its breaker trips; ``0`` disables
            deadline enforcement.
        join_timeout_s: ``Process.join`` timeout used by the parallel
            runtime's lifecycle paths (hoisted from the former
            hard-coded 5 s constants so chaos tests can shrink it).
    """

    window: int = 64
    degrade_failure_rate: float = 0.05
    quarantine_failure_rate: float = 0.5
    degrade_latency_cycles: int = 0
    recover_windows: int = 1
    quarantine_cooldown: int = 32
    probe_batch: int = 16
    probe_successes: int = 4
    stash_pressure_fraction: float = 0.9
    heartbeat_every: int = 16
    batch_deadline_s: float = 20.0
    join_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        for name in ("degrade_failure_rate", "quarantine_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.degrade_failure_rate > self.quarantine_failure_rate:
            raise ValueError(
                "degrade_failure_rate must not exceed quarantine_failure_rate"
            )
        if not 0.0 < self.stash_pressure_fraction <= 1.0:
            raise ValueError("stash_pressure_fraction must be in (0, 1]")
        if self.probe_successes > self.probe_batch:
            raise ValueError("probe_successes must be <= probe_batch")
        if min(self.probe_batch, self.probe_successes, self.recover_windows) < 1:
            raise ValueError("probe/recover budgets must be >= 1")
        if self.quarantine_cooldown < 0:
            raise ValueError("quarantine_cooldown must be >= 0")
        if self.batch_deadline_s < 0 or self.join_timeout_s <= 0:
            raise ValueError("deadlines must be positive (batch deadline may be 0)")

    @classmethod
    def parse(cls, spec: str) -> "HealthPolicy":
        """Build a policy from a ``key=value,key=value`` CLI string.

        Unknown keys raise; value types follow the field annotations
        (int / float), so ``--health-policy window=32,probe_batch=8``
        works without any per-key plumbing.
        """
        policy = cls()
        if not spec:
            return policy
        known = {field.name: field.type for field in fields(cls)}
        updates = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or key not in known:
                names = ", ".join(sorted(known))
                raise ValueError(
                    f"bad health-policy entry {item!r} (known keys: {names})"
                )
            caster = float if "float" in str(known[key]) else int
            updates[key] = caster(raw.strip())
        return replace(policy, **updates)


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state-machine edge."""

    event_index: int
    previous: HealthState
    state: HealthState
    reason: str


class CircuitBreaker:
    """The deterministic health state machine for one shard.

    The owner feeds it one :meth:`record` per observed access outcome,
    whatever the state (the breaker decides what the outcome counts as),
    plus :meth:`record_pressure` for stash pressure and
    :meth:`record_hard_failure` for process-level events (death, hang).
    The breaker answers with its :attr:`state`, whose ``throttled`` /
    ``padded`` say what the owner does to the shard's traffic; the
    machine itself stays free of any simulator coupling.
    """

    #: cumulative event counts -> the ``health.shard<i>.<name>`` they are
    #: reported under (:meth:`HealthControlPlane.to_registry`), with
    #: ``len(transitions)`` beside them
    COUNTERS = {
        "hard_failures": "hard_failures",
        "fallbacks_total": "fallback_accesses",
        "probes_total": "probes",
    }

    def __init__(self, policy: Optional[HealthPolicy] = None, name: str = "shard"):
        self.policy = policy or HealthPolicy()
        self.name = name
        self.state = HealthState.HEALTHY
        self.events = 0
        self.transitions: List[HealthTransition] = []
        # current-window accumulators
        self._window_events = 0
        self._window_failures = 0
        self._window_latency = 0
        self._window_pressure = False
        self._clean_windows = 0
        # quarantine / probe accounting
        self._fallback_served = 0
        self._probes = 0
        self._probe_streak = 0
        self.hard_failures = 0
        self.fallbacks_total = 0
        self.probes_total = 0
        self.quarantines = 0
        self.readmissions = 0

    # ------------------------------------------------------------ transitions
    def _transition(self, state: HealthState, reason: str) -> None:
        if state is self.state:
            return
        self.transitions.append(
            HealthTransition(self.events, self.state, state, reason)
        )
        self.state = state
        if state is HealthState.QUARANTINED:
            self.quarantines += 1
            self._fallback_served = 0
        elif state is HealthState.PROBING:
            self._probes = 0
            self._probe_streak = 0
        elif state is HealthState.HEALTHY and self.transitions[-1].previous.padded:
            self.readmissions += 1
        self._reset_window()

    def _reset_window(self) -> None:
        self._window_events = 0
        self._window_failures = 0
        self._window_latency = 0
        self._window_pressure = False

    # ---------------------------------------------------------------- feeding
    def record(self, ok: bool, latency_cycles: int = 0) -> None:
        """One access outcome (*ok*: no fault), counted by the state:

        * QUARANTINED -- a fallback access toward the cooldown; a fault on
          the fallback path is also a hard failure (``fallback_fault``);
        * PROBING -- a probe: a failure re-quarantines, ``probe_successes``
          in a row re-admit, an exhausted ``probe_batch`` re-quarantines;
        * HEALTHY / DEGRADED -- one event of the failure-rate and latency
          window (*latency_cycles* is read here only).
        """
        self.events += 1
        state = self.state
        if state is HealthState.QUARANTINED:
            self.fallbacks_total += 1
            self._fallback_served += 1
            if not ok:
                self.record_hard_failure("fallback_fault")
        elif state is HealthState.PROBING:
            self.probes_total += 1
            self._probes += 1
            if not ok:
                self._transition(HealthState.QUARANTINED, "probe_failed")
                return
            self._probe_streak += 1
            if self._probe_streak >= self.policy.probe_successes:
                self._transition(HealthState.HEALTHY, "probe_passed")
            elif self._probes >= self.policy.probe_batch:
                # Budget exhausted without the required streak: not healthy.
                self._transition(HealthState.QUARANTINED, "probe_budget_exhausted")
        else:
            self._window_events += 1
            self._window_latency += latency_cycles
            if not ok:
                self._window_failures += 1
            if self._window_events >= self.policy.window:
                self._evaluate()

    def record_pressure(self) -> None:
        """Stash-pressure signal: degrade *now*, before load is shed."""
        self._window_pressure = True
        if self.state is HealthState.HEALTHY:
            self._transition(HealthState.DEGRADED, "stash_pressure")

    def record_hard_failure(self, reason: str = "hard_failure") -> None:
        """Process-level failure (worker death, hung deadline): quarantine."""
        self.events += 1
        self.hard_failures += 1
        self._transition(HealthState.QUARANTINED, reason)

    # ------------------------------------------------------------- evaluation
    @property
    def ready_to_probe(self) -> bool:
        """Quarantined and past its cooldown: the owner may begin probing."""
        return (
            self.state is HealthState.QUARANTINED
            and self._fallback_served >= self.policy.quarantine_cooldown
        )

    def begin_probe(self) -> None:
        """Half-open the breaker (owner calls when ``ready_to_probe``)."""
        if self.state is not HealthState.QUARANTINED:
            raise ValueError(f"cannot probe from {self.state.value}")
        self._transition(HealthState.PROBING, "cooldown_elapsed")

    def _evaluate(self) -> None:
        """Judge a full window (:meth:`record` calls this once one is)."""
        policy = self.policy
        failure_rate = self._window_failures / self._window_events
        mean_latency = self._window_latency / self._window_events
        slow = (
            policy.degrade_latency_cycles
            and mean_latency > policy.degrade_latency_cycles
        )
        tripped = (
            failure_rate >= policy.degrade_failure_rate
            or slow
            or self._window_pressure
        )
        if failure_rate >= policy.quarantine_failure_rate:
            self._transition(HealthState.QUARANTINED, "failure_storm")
            return
        if self.state is HealthState.HEALTHY:
            if tripped:
                reason = "failure_window" if not slow else "latency_window"
                self._transition(HealthState.DEGRADED, reason)
            else:
                self._reset_window()
            return
        if self.state is HealthState.DEGRADED:
            if tripped:
                self._clean_windows = 0
            else:
                self._clean_windows += 1
                if self._clean_windows >= policy.recover_windows:
                    self._clean_windows = 0
                    self._transition(HealthState.HEALTHY, "window_recovered")
                    return
            self._reset_window()

    # ---------------------------------------------------------------- queries
    def transition_pairs(self) -> List[Tuple[str, str]]:
        return [(t.previous.value, t.state.value) for t in self.transitions]

    def summary(self) -> str:
        return (
            f"{self.name}: {self.state.value} after {self.events} events, "
            f"{len(self.transitions)} transitions, "
            f"{self.quarantines} quarantines, {self.readmissions} re-admissions"
        )
