"""Health-state control plane for sharded ORAM deployments.

The ROADMAP's production target must survive *sick* shards, not just
dead ones: a stalled worker, a fault storm concentrated on one channel,
sustained stash pressure.  This package supplies the decision layer
(DESIGN.md section 10):

* :class:`HealthState` / :class:`HealthPolicy` / :class:`CircuitBreaker`
  (:mod:`repro.health.breaker`) -- the per-shard state machine
  ``HEALTHY -> DEGRADED -> QUARANTINED -> PROBING -> HEALTHY`` driven by
  deterministic failure-rate and latency windows, fed one
  ``record(ok, latency)`` per access outcome in every state;
* :class:`HealthControlPlane` (:mod:`repro.health.plane`) -- one breaker
  per shard, reported under ``health.*`` names by ``to_registry()``, fed
  by one health step (:func:`repro.controller.sharded.health_access`)
  whether the shard is a channel of an in-process
  :class:`~repro.controller.sharded.ShardedORAMBank` or a worker of a
  :class:`~repro.parallel.runtime.ParallelShardRuntime` (which runs its
  channel as a bank of one).

The protocol lives here: a state's ``throttled`` (merges and prefetches
throttled, reduced quota) and ``padded`` (one dummy path per access) are
the one table every owner obeys.  The enforcement (set_degraded, the
dummy path, the serial fallback route, heartbeat deadlines) stays with the
component owners; the plane only decides.
"""

from repro.health.breaker import (
    CircuitBreaker,
    HealthPolicy,
    HealthState,
    HealthTransition,
)
from repro.health.plane import HealthControlPlane

__all__ = [
    "CircuitBreaker",
    "HealthControlPlane",
    "HealthPolicy",
    "HealthState",
    "HealthTransition",
]
