"""The health-state control plane: one breaker per shard, one report.

:class:`HealthControlPlane` owns the :class:`~repro.health.breaker.
CircuitBreaker` of every shard in a bank (or every worker of a parallel
runtime): owners feed it access outcomes (:meth:`~HealthControlPlane.
record_access`, whatever the state), pressure and hard failures, and read
back a :class:`~repro.health.breaker.HealthState` whose ``throttled`` /
``padded`` say what to do with the shard's traffic; the serving front end
asks its two admission queries (:meth:`~HealthControlPlane.should_reroute`,
:meth:`~HealthControlPlane.throttled`).  The plane never touches a shard
itself -- the shard's health step
(:func:`repro.controller.sharded.health_access`) is the one actor, run by
the bank for each channel (a shard worker holds a bank of one) -- so it
stays a pure, deterministic decision layer.  A parallel runtime's plane is
a report view: its breakers are loaded from the ones the workers ship.  The breakers count their own
events in bare attributes;
:meth:`HealthControlPlane.to_registry` is the one walk that reports them,
under ``health.shard<i>.*`` names.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro.health.breaker import CircuitBreaker, HealthPolicy, HealthState
from repro.observability.metrics import MetricsRegistry


class HealthControlPlane:
    """Per-shard circuit breakers behind one decision surface.

    Args:
        num_shards: how many breakers to manage (bank width).
        policy: shared :class:`HealthPolicy` (defaults apply when omitted).
    """

    def __init__(self, num_shards: int, policy: Optional[HealthPolicy] = None):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.policy = policy or HealthPolicy()
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(self.policy, name=f"shard{index}")
            for index in range(num_shards)
        ]

    # ------------------------------------------------------------------ events
    def record_access(
        self, index: int, ok: bool, latency_cycles: int = 0
    ) -> HealthState:
        """Feed one access outcome to the shard's breaker, which counts it
        by its own state (:meth:`CircuitBreaker.record`); returns the (new)
        state."""
        breaker = self.breakers[index]
        breaker.record(ok, latency_cycles)
        return breaker.state

    def record_pressure(self, index: int) -> HealthState:
        breaker = self.breakers[index]
        breaker.record_pressure()
        return breaker.state

    def record_hard_failure(
        self, index: int, reason: str = "hard_failure"
    ) -> HealthState:
        breaker = self.breakers[index]
        breaker.record_hard_failure(reason)
        return breaker.state

    def begin_probe_if_ready(self, index: int) -> bool:
        """Half-open a quarantined shard whose cooldown elapsed."""
        breaker = self.breakers[index]
        if not breaker.ready_to_probe:
            return False
        breaker.begin_probe()
        return True

    # ----------------------------------------------------------------- queries
    def state(self, index: int) -> HealthState:
        return self.breakers[index].state

    @property
    def num_shards(self) -> int:
        return len(self.breakers)

    def should_reroute(self, index: int) -> bool:
        """Admission-time routing query: send this shard's *new* arrivals
        down the serial fallback lane instead of batching them?  True only
        while the shard is quarantined -- probing and degraded shards keep
        taking batched traffic (smaller batches for the latter)."""
        return self.breakers[index].state is HealthState.QUARANTINED

    def throttled(self, index: int) -> bool:
        """Should this shard's batch quota be reduced (degraded/probing)?"""
        return self.breakers[index].state.throttled

    def total_transitions(self) -> int:
        return sum(len(b.transitions) for b in self.breakers)

    def total_quarantines(self) -> int:
        return sum(b.quarantines for b in self.breakers)

    def total_readmissions(self) -> int:
        return sum(b.readmissions for b in self.breakers)

    # ----------------------------------------------------------------- exports
    def to_registry(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Report every breaker into *registry* under ``health.*`` names.

        ``health.shard<i>.state`` always; ``.transitions`` and the
        :attr:`CircuitBreaker.COUNTERS` once they are non-zero, as are the
        plane-wide ``health.transitions.<from>_to_<to>`` edge counts.
        """
        registry = registry if registry is not None else MetricsRegistry()
        for index, breaker in enumerate(self.breakers):
            prefix = f"health.shard{index}."
            registry.gauge(prefix + "state").set(breaker.state.code)
            counts = {
                name: getattr(breaker, attr)
                for attr, name in breaker.COUNTERS.items()
            }
            counts["transitions"] = len(breaker.transitions)
            registry.absorb({k: v for k, v in counts.items() if v}, prefix)
        edges = Counter(
            "health.transitions.%s_to_%s" % pair
            for breaker in self.breakers
            for pair in breaker.transition_pairs()
        )
        return registry.absorb(edges)

    @property
    def registry(self) -> MetricsRegistry:
        """Read view: a fresh :meth:`to_registry` walk."""
        return self.to_registry()
