"""The health-state control plane: one breaker per shard, one registry.

:class:`HealthControlPlane` owns the :class:`~repro.health.breaker.
CircuitBreaker` of every shard in a bank (or every worker of a parallel
runtime), mirrors their states into a
:class:`~repro.observability.metrics.MetricsRegistry` under
``health.shard<i>.*`` names, and answers the routing questions the
owners ask (*is this shard quarantined? may it be probed? should its
merges be throttled?*).  It never touches a shard itself -- the bank and
the parallel runtime remain the only actors on their components -- so
the plane stays a pure, deterministic decision layer that both
integrations (and the chaos harness) share.
"""

from __future__ import annotations

from typing import List, Optional

from repro.health.breaker import CircuitBreaker, HealthPolicy, HealthState
from repro.observability.metrics import MetricsRegistry


class HealthControlPlane:
    """Per-shard circuit breakers behind one decision surface.

    Args:
        num_shards: how many breakers to manage (bank width).
        policy: shared :class:`HealthPolicy` (defaults apply when omitted).
        metrics: optional registry the plane mirrors state into; a private
            one is created when omitted (reachable as :attr:`registry`).
    """

    def __init__(
        self,
        num_shards: int,
        policy: Optional[HealthPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.policy = policy or HealthPolicy()
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(self.policy, name=f"shard{index}")
            for index in range(num_shards)
        ]
        for index in range(num_shards):
            self.registry.gauge(f"health.shard{index}.state").set(
                HealthState.HEALTHY.code
            )

    # ------------------------------------------------------------------ events
    def _sync(self, index: int, breaker: CircuitBreaker, before: int) -> None:
        """Mirror a breaker's state into the registry after an event."""
        after = len(breaker.transitions)
        if after == before:
            return
        registry = self.registry
        registry.gauge(f"health.shard{index}.state").set(breaker.state.code)
        for transition in breaker.transitions[before:after]:
            registry.counter(f"health.shard{index}.transitions").inc()
            registry.counter(
                "health.transitions."
                f"{transition.previous.value}_to_{transition.state.value}"
            ).inc()

    def record_access(
        self, index: int, ok: bool, latency_cycles: int = 0
    ) -> HealthState:
        """Feed one routed access outcome; returns the (new) state."""
        breaker = self.breakers[index]
        before = len(breaker.transitions)
        if ok:
            breaker.record_success(latency_cycles)
        else:
            breaker.record_failure(latency_cycles)
        self._sync(index, breaker, before)
        return breaker.state

    def record_pressure(self, index: int) -> HealthState:
        breaker = self.breakers[index]
        before = len(breaker.transitions)
        breaker.record_pressure()
        self._sync(index, breaker, before)
        return breaker.state

    def record_hard_failure(
        self, index: int, reason: str = "hard_failure"
    ) -> HealthState:
        breaker = self.breakers[index]
        before = len(breaker.transitions)
        breaker.record_hard_failure(reason)
        self.registry.counter(f"health.shard{index}.hard_failures").inc()
        self._sync(index, breaker, before)
        return breaker.state

    def record_fallback(self, index: int) -> None:
        self.breakers[index].record_fallback()
        self.registry.counter(f"health.shard{index}.fallback_accesses").inc()

    def record_probe(self, index: int, ok: bool) -> HealthState:
        breaker = self.breakers[index]
        before = len(breaker.transitions)
        breaker.record_probe(ok)
        self.registry.counter(f"health.shard{index}.probes").inc()
        self._sync(index, breaker, before)
        return breaker.state

    def begin_probe_if_ready(self, index: int) -> bool:
        """Half-open a quarantined shard whose cooldown elapsed."""
        breaker = self.breakers[index]
        if not breaker.ready_to_probe:
            return False
        before = len(breaker.transitions)
        breaker.begin_probe()
        self._sync(index, breaker, before)
        return True

    # ----------------------------------------------------------------- queries
    def state(self, index: int) -> HealthState:
        return self.breakers[index].state

    @property
    def num_shards(self) -> int:
        return len(self.breakers)

    @property
    def all_healthy(self) -> bool:
        return all(b.state is HealthState.HEALTHY for b in self.breakers)

    def should_reroute(self, index: int) -> bool:
        """Admission-time routing query: send this shard's *new* arrivals
        down the serial fallback lane instead of batching them?  True only
        while the shard is quarantined -- probing and degraded shards keep
        taking batched traffic (smaller batches for the latter)."""
        return self.breakers[index].state is HealthState.QUARANTINED

    def throttled(self, index: int) -> bool:
        """Should this shard's batch quota be reduced (degraded/probing)?"""
        return self.breakers[index].state.throttled

    def quarantined(self) -> List[int]:
        return [
            index
            for index, breaker in enumerate(self.breakers)
            if breaker.state is HealthState.QUARANTINED
        ]

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
        """Copy the plane's ``health.*`` instruments into *registry*."""
        registry = registry if registry is not None else MetricsRegistry()
        return registry.absorb(
            i for i in self.registry if i.name.startswith("health.")
        )

    def render(self) -> str:
        lines = [f"health plane: {self.num_shards} shards"]
        for breaker in self.breakers:
            lines.append("  " + breaker.summary())
            for transition in breaker.transitions:
                lines.append(
                    f"    @{transition.event_index}: "
                    f"{transition.previous.value} -> {transition.state.value} "
                    f"({transition.reason})"
                )
        return "\n".join(lines)
