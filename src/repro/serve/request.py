"""Request and report types for the serving front end.

A :class:`Request` is one tenant-issued block operation against the
sharded ORAM: it arrives at a cycle, carries a completion-deadline budget,
and is either shed at admission or served at some later completion cycle.
Requests are deliberately small mutable objects -- the front end stamps
completion state onto them as the event loop advances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.results import SimResult

#: request dispositions (mutually exclusive, stamped once)
PENDING = "pending"
SERVED = "served"
SHED = "shed"


@dataclass(slots=True)
class Request:
    """One block operation offered to the front end.

    Attributes:
        req_id: globally unique, monotonically increasing per source; ties
            in every deterministic ordering break on it.
        tenant: index of the issuing tenant (fair-queue lane).
        addr: global block address (the bank interleaves ``addr % N``).
        is_write: store vs. load.
        arrival_cycle: cycle the request reached the front end.
        deadline_cycles: admission->completion budget; batch formation
            closes a batch once the oldest member has spent half of it.
        client: closed-loop client index (``-1`` for open-loop sources).
        issue_cycle: stamped when the request's ORAM access is issued
            (``-1`` for a read that latched onto an access already in
            flight: it never waited for an issue).
        completion_cycle: stamped when the backing ORAM access completes.
        status: one of ``pending`` / ``served`` / ``shed``.
        coalesced: served by attaching to another request's ORAM access.
        rerouted: admitted via the quarantine fallback lane.
        shard: owning bank channel (``addr % N``), stamped once at admission.
    """

    req_id: int
    tenant: int
    addr: int
    is_write: bool
    arrival_cycle: int
    deadline_cycles: int
    client: int = -1
    issue_cycle: int = -1
    completion_cycle: int = -1
    status: str = PENDING
    coalesced: bool = False
    rerouted: bool = False
    shard: int = -1

    @property
    def latency(self) -> int:
        """Admission->completion cycles (valid once served)."""
        return self.completion_cycle - self.arrival_cycle


@dataclass
class TenantReport:
    """Per-tenant serving outcome.

    A run counts ``admitted``, ``shed`` and ``coalesced`` here as they
    happen; the report fills in ``offered`` (``admitted + shed``), ``served``
    (the tenant's latency samples) and the two quantiles.
    """

    tenant: int
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    served: int = 0
    coalesced: int = 0
    p50_latency: int = 0
    p99_latency: int = 0


@dataclass
class ServeReport:
    """Everything one front-end run produces.

    ``sim`` is the access-level :class:`SimResult` merged from the bank's
    per-shard snapshots -- bit-identical to replaying the front end's
    issued accesses straight through a fresh bank, which is what the
    replay tests pin.
    """

    workload: str
    scheme: str
    num_shards: int
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    served: int = 0
    coalesced: int = 0
    rerouted: int = 0
    batches: int = 0
    full_closes: int = 0
    deadline_closes: int = 0
    drain_closes: int = 0
    deadline_misses: int = 0
    makespan_cycles: int = 0
    mean_latency: float = 0.0
    p50_latency: int = 0
    p99_latency: int = 0
    tenants: List[TenantReport] = field(default_factory=list)
    sim: Optional[SimResult] = None

    @property
    def served_per_kilocycle(self) -> float:
        """Served throughput over the run's makespan."""
        if self.makespan_cycles <= 0:
            return 0.0
        return 1000.0 * self.served / self.makespan_cycles

    def as_dict(self) -> Dict:
        """JSON-ready snapshot (benchmark artifacts)."""
        import dataclasses

        data = dataclasses.asdict(self)
        data["served_per_kilocycle"] = self.served_per_kilocycle
        return data

    def render(self) -> str:
        lines = [
            f"serve: {self.workload} on {self.scheme}, "
            f"{self.num_shards}-shard bank",
            f"  offered {self.offered}  admitted {self.admitted}  "
            f"shed {self.shed}  served {self.served}",
            f"  coalesced {self.coalesced}  rerouted {self.rerouted}  "
            f"batches {self.batches} "
            f"(full {self.full_closes} / deadline {self.deadline_closes} / "
            f"drain {self.drain_closes})",
            f"  makespan {self.makespan_cycles:,} cycles  "
            f"throughput {self.served_per_kilocycle:.2f} req/kcycle",
            f"  latency mean {self.mean_latency:,.0f}  "
            f"p50<={self.p50_latency:,}  p99<={self.p99_latency:,}  "
            f"deadline misses {self.deadline_misses}",
        ]
        for tenant in self.tenants:
            lines.append(
                f"    tenant{tenant.tenant}: offered {tenant.offered}  "
                f"shed {tenant.shed}  served {tenant.served}  "
                f"p50<={tenant.p50_latency:,}  p99<={tenant.p99_latency:,}"
            )
        return "\n".join(lines)
