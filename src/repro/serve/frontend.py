"""The deadline-aware request-serving front end (DESIGN.md section 12).

:class:`ServingFrontEnd` sits between a multi-tenant request stream (a
:mod:`repro.serve.loadgen` source) and a
:class:`~repro.controller.sharded.ShardedORAMBank`.  It is a cycle-clocked
discrete-event loop over three event kinds -- request arrivals, ORAM access
completions, and batch deadline closes -- that applies four policies:

1. **Admission control**: bounded per-tenant ingress queues with a global
   backlog cap and a stash-pressure watermark, shedding load *before* the
   stash feels it.
2. **Weighted-fair batching**: queued requests drain into per-shard
   batches via smooth weighted round-robin (:class:`~repro.serve.queue.
   TenantQueues`); a shard runs at most one batch in flight, so overload
   backs up into the fair queues instead of the ORAM.
3. **Coalescing**: concurrent requests for the same super block dedupe
   onto one pending ORAM access (reads may also latch onto an
   already-issued access, MSHR-style) and the completion fans back out.
4. **Deadline-aware closes**: a batch issues when it fills its quota or
   when its oldest member has spent half (``deadline_close_fraction``) of
   its deadline budget waiting -- and drains immediately once the source
   is exhausted.

Health integration: DEGRADED shards get ``quota_for(throttled)``-sized
batches; QUARANTINED shards are rerouted at admission onto a serial
fallback lane whose accesses the bank pads with dummy paths.

Everything ties are broken on (cycle, sequence) pairs, so a run is a pure
function of (source, config, bank seed).  The front end only decides
*when* to call ``bank.demand_access``; :attr:`ServingFrontEnd.issued`
records those calls, and feeding that schedule to
:func:`repro.parallel.merge.run_serial_reference` (or
``ParallelShardRuntime.run``) over a fresh bank of the same shape returns
the identical SimResult -- the replay contract that pins the front end to
the raw bank, with every policy on.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.config import ServeConfig, SystemConfig
from repro.controller.sharded import build_bank
from repro.observability.metrics import MetricsRegistry
from repro.parallel.merge import merge_shard_snapshots
from repro.serve.loadgen import LoadSource
from repro.serve.queue import TenantQueues
from repro.serve.request import SERVED, SHED, Request, ServeReport, TenantReport


class _Access:
    """One pending/issued ORAM access serving >= 1 coalesced requests."""

    __slots__ = (
        "addr", "is_write", "requests", "shard", "key", "inflight_key",
        "completion_cycle",
    )

    def __init__(self, request: Request, key):
        self.addr = request.addr
        self.is_write = request.is_write
        self.requests: List[Request] = [request]
        self.shard = -1
        #: open-group coalescing key (None with coalescing off)
        self.key = key
        #: in-flight coalescing key, stamped at issue time
        self.inflight_key = None
        self.completion_cycle = -1


class ServingFrontEnd:
    """Deadline-aware serving layer over a sharded ORAM bank.

    Args:
        bank: the (already built) :class:`ShardedORAMBank`; its optional
            health plane drives quotas and quarantine rerouting.
        serve_config: policies (:class:`~repro.config.ServeConfig`).
        workload: label stamped on the report and merged SimResult.
        scheme: scheme label for the same.
        registry: metrics sink; a private one is created when omitted.

    A front end drives its bank's state forward, so :meth:`run` may be
    called once per instance.
    """

    def __init__(
        self,
        bank,
        serve_config: Optional[ServeConfig] = None,
        *,
        workload: str = "serve",
        scheme: str = "dyn",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.bank = bank
        self.config = serve_config or ServeConfig()
        self.health = bank.health
        self.workload = workload
        self.scheme = scheme
        self.registry = registry if registry is not None else MetricsRegistry()
        num_shards = bank.num_shards
        self.queues: Optional[TenantQueues] = None
        self._open_batches: List[List[_Access]] = [[] for _ in range(num_shards)]
        self._open_groups: Dict[Tuple[int, int], _Access] = {}
        self._inflight_groups: Dict[Tuple[int, int], _Access] = {}
        self._outstanding: List[int] = [0] * num_shards
        self._fallback: List[List[Request]] = [[] for _ in range(num_shards)]
        self._comp_heap: List[Tuple[int, int, _Access]] = []
        self._event_seq = 0
        #: (addr, issue_cycle, is_write) in issue order -- replayable
        #: through ``run_serial_reference`` / ``ParallelShardRuntime.run``
        self.issued: List[Tuple[int, int, bool]] = []
        #: completion cycle per issued access, in issue order
        self.access_completions: List[int] = []
        self.all_requests: List[Request] = []
        self._makespan = 0
        self._sum_latency = 0
        self._ran = False

    # -------------------------------------------------------------- factories
    @classmethod
    def build(
        cls,
        scheme: str,
        footprint_blocks: int,
        config: Optional[SystemConfig] = None,
        num_shards: int = 1,
        *,
        serve_config: Optional[ServeConfig] = None,
        health_policy=None,
        static_sbsize: Optional[int] = None,
        workload: str = "serve",
        registry: Optional[MetricsRegistry] = None,
    ) -> "ServingFrontEnd":
        """Build a bank exactly as the serial reference does and wrap it.

        ``health_policy`` (a :class:`~repro.health.HealthPolicy`) attaches
        a control plane so admission rerouting and degraded quotas engage.
        """
        bank = build_bank(
            scheme, footprint_blocks, config or SystemConfig(), num_shards,
            health_policy=health_policy, static_sbsize=static_sbsize,
        )
        return cls(
            bank, serve_config, workload=workload, scheme=scheme,
            registry=registry,
        )

    # ------------------------------------------------------------------- run
    def run(self, source: LoadSource) -> ServeReport:
        """Drive the source to exhaustion; return the serving report."""
        if self._ran:
            raise RuntimeError("a front end drives its bank once; build a new one")
        self._ran = True
        self.queues = TenantQueues(source.weights, self.config.queue_capacity)
        self._tenant_counts = [TenantReport(tenant=t) for t in range(source.num_tenants)]
        self._serve_loop(source)
        return self._finish(source)

    # ------------------------------------------------------------- event loop
    def _serve_loop(self, source: LoadSource) -> None:
        now = 0
        while True:
            next_arrival = source.next_arrival_cycle()
            next_completion = self._comp_heap[0][0] if self._comp_heap else None
            next_close = self._next_close()
            candidates = [
                c for c in (next_arrival, next_completion, next_close)
                if c is not None
            ]
            if not candidates:
                break
            now = max(now, min(candidates))
            while self._comp_heap and self._comp_heap[0][0] <= now:
                _, _, access = heapq.heappop(self._comp_heap)
                self._complete(access, source)
            for request in source.take_arrivals(now):
                self._admit(request, source, now)
            self._pump(source, now)

    # -------------------------------------------------------------- admission
    def _admit(self, request: Request, source: LoadSource, now: int) -> None:
        config = self.config
        self.all_requests.append(request)
        self._tenant_counts[request.tenant].offered += 1
        self.registry.counter("serve.offered").inc()
        shard = self.bank.shard_of(request.addr)
        if self.health is not None and self.health.should_reroute(shard):
            if len(self._fallback[shard]) >= config.queue_capacity:
                self._shed(request, source, now, "queue_full")
                return
            request.rerouted = True
            self._fallback[shard].append(request)
            self._tenant_counts[request.tenant].admitted += 1
            self.registry.counter("serve.admitted").inc()
            self.registry.counter("serve.rerouted").inc()
            return
        if (
            config.stash_shed_fraction > 0.0
            and self.bank.stash_fraction(shard) >= config.stash_shed_fraction
        ):
            self._shed(request, source, now, "pressure")
            return
        if config.max_backlog and self._backlog() >= config.max_backlog:
            self._shed(request, source, now, "backlog")
            return
        if not self.queues.push(request):
            self._shed(request, source, now, "queue_full")
            return
        self._tenant_counts[request.tenant].admitted += 1
        self.registry.counter("serve.admitted").inc()

    def _shed(
        self, request: Request, source: LoadSource, now: int, reason: str
    ) -> None:
        request.status = SHED
        self._tenant_counts[request.tenant].shed += 1
        self.registry.counter("serve.shed").inc()
        self.registry.counter(f"serve.shed_{reason}").inc()
        source.on_shed(request, now)

    def _backlog(self) -> int:
        """Admitted-but-unissued requests (queued, batched, or fallback)."""
        return (
            self.queues.total_depth()
            + sum(
                len(access.requests)
                for batch in self._open_batches
                for access in batch
            )
            + sum(len(lane) for lane in self._fallback)
        )

    # ----------------------------------------------------- batching/coalescing
    def _quota(self, shard: int) -> int:
        throttled = self.health is not None and self.health.throttled(shard)
        return self.config.quota_for(throttled)

    def _close_cycle(self, shard: int) -> int:
        """Deadline-close cycle of a shard's open batch (min over members)."""
        fraction = self.config.deadline_close_fraction
        return min(
            request.arrival_cycle + int(request.deadline_cycles * fraction)
            for access in self._open_batches[shard]
            for request in access.requests
        )

    def _next_close(self) -> Optional[int]:
        cycles = [
            self._close_cycle(shard)
            for shard in range(self.bank.num_shards)
            if self._open_batches[shard] and not self._outstanding[shard]
        ]
        return min(cycles) if cycles else None

    def _placeable(self, request: Request, now: int) -> bool:
        shard = self.bank.shard_of(request.addr)
        if self.config.coalesce:
            key = self.bank.coalesce_key(request.addr)
            if key in self._open_groups:
                return True
            if key in self._inflight_groups and not request.is_write:
                return True
        return len(self._open_batches[shard]) < self._quota(shard)

    def _place(self, request: Request, now: int) -> None:
        shard = self.bank.shard_of(request.addr)
        key = self.bank.coalesce_key(request.addr) if self.config.coalesce else None
        if key is not None:
            open_access = self._open_groups.get(key)
            if open_access is not None:
                open_access.requests.append(request)
                open_access.is_write = open_access.is_write or request.is_write
                self._mark_coalesced(request)
                return
            inflight = self._inflight_groups.get(key)
            if inflight is not None and not request.is_write:
                # MSHR-style: the super block is already on its way; ride
                # the pending access and share its completion.
                inflight.requests.append(request)
                self._mark_coalesced(request)
                return
        access = _Access(request, key)
        access.shard = shard
        self._open_batches[shard].append(access)
        if key is not None:
            self._open_groups[key] = access

    def _mark_coalesced(self, request: Request) -> None:
        request.coalesced = True
        self._tenant_counts[request.tenant].coalesced += 1
        self.registry.counter("serve.coalesced").inc()

    def _pump(self, source: LoadSource, now: int) -> None:
        """Fill batches from the fair queues and issue every ready one.

        Runs to a fixpoint: closing a batch frees quota, which may make
        more queued requests placeable, which may fill another batch.
        """
        while True:
            progress = False
            while True:
                request = self.queues.pop_where(
                    lambda r: self._placeable(r, now)
                )
                if request is None:
                    break
                self._place(request, now)
                progress = True
            drain = source.exhausted and not self.queues
            for shard in range(self.bank.num_shards):
                if self._outstanding[shard]:
                    continue
                if self._fallback[shard]:
                    self._issue_fallback(shard, now)
                    progress = True
                    continue
                batch = self._open_batches[shard]
                if not batch:
                    continue
                if len(batch) >= self._quota(shard):
                    reason = "full"
                elif now >= self._close_cycle(shard):
                    reason = "deadline"
                elif drain and not self._fallback[shard]:
                    reason = "drain"
                else:
                    continue
                self._issue_batch(shard, now, reason)
                progress = True
            if not progress:
                break

    # ---------------------------------------------------------------- issuing
    def _issue_one(self, access: _Access, shard: int, now: int) -> None:
        result = self.bank.demand_access(access.addr, now, access.is_write)
        access.shard = shard
        access.completion_cycle = result.completion_cycle
        self.issued.append((access.addr, now, access.is_write))
        self.access_completions.append(result.completion_cycle)
        self._outstanding[shard] += 1
        if self.config.coalesce:
            access.inflight_key = self.bank.coalesce_key(access.addr)
            self._inflight_groups[access.inflight_key] = access
        wait_hist = self.registry.histogram("serve.queue_wait_cycles")
        for request in access.requests:
            wait_hist.record(now - request.arrival_cycle)
        heapq.heappush(
            self._comp_heap, (result.completion_cycle, self._event_seq, access)
        )
        self._event_seq += 1

    def _issue_fallback(self, shard: int, now: int) -> None:
        """Serial fallback lane: one rerouted request, one padded access."""
        request = self._fallback[shard].pop(0)
        access = _Access(request, None)
        self.registry.counter("serve.fallback_issues").inc()
        self._issue_one(access, shard, now)

    def _issue_batch(self, shard: int, now: int, reason: str) -> None:
        batch = self._open_batches[shard]
        self._open_batches[shard] = []
        for access in batch:
            if access.key is not None:
                self._open_groups.pop(access.key, None)
        # Super-block membership may have shifted (merges/breaks) since the
        # group formed; requests no longer riding the leader's super block
        # get their own access so nobody is "served" by a path that never
        # touched their block.
        final: List[_Access] = []
        stride = self.bank.num_shards
        scheme = self.bank.shards[shard].scheme
        for access in batch:
            final.append(access)
            if len(access.requests) <= 1:
                continue
            members = set(scheme.members_for(access.addr // stride))
            keep = [access.requests[0]]
            for request in access.requests[1:]:
                if request.addr // stride in members:
                    keep.append(request)
                else:
                    split = _Access(request, None)
                    final.append(split)
            if len(keep) != len(access.requests):
                access.requests = keep
                access.is_write = any(r.is_write for r in keep)
        self.registry.counter("serve.batches").inc()
        self.registry.counter(f"serve.{reason}_closes").inc()
        self.registry.histogram("serve.batch_occupancy").record(len(final))
        for access in final:
            self._issue_one(access, shard, now)

    # ------------------------------------------------------------- completion
    def _complete(self, access: _Access, source: LoadSource) -> None:
        shard = access.shard
        self._outstanding[shard] -= 1
        if (
            access.inflight_key is not None
            and self._inflight_groups.get(access.inflight_key) is access
        ):
            del self._inflight_groups[access.inflight_key]
        cycle = access.completion_cycle
        self._makespan = max(self._makespan, cycle)
        latency_hist = self.registry.histogram("serve.latency_cycles")
        for request in access.requests:
            request.status = SERVED
            request.completion_cycle = cycle
            latency = request.latency
            self._sum_latency += latency
            latency_hist.record(latency)
            self.registry.histogram(
                f"serve.tenant{request.tenant}.latency_cycles"
            ).record(latency)
            self._tenant_counts[request.tenant].served += 1
            self.registry.counter("serve.served").inc()
            if request.missed_deadline:
                self.registry.counter("serve.deadline_misses").inc()
            source.on_completion(request, cycle)

    # --------------------------------------------------------------- report
    def _finish(self, source: LoadSource) -> ServeReport:
        registry = self.registry
        bank = self.bank
        bank.finalize(self._makespan)
        for tenant in range(source.num_tenants):
            registry.gauge(f"serve.tenant{tenant}.queue_peak").set(
                self.queues.peak_depth[tenant]
            )
        latency_hist = registry.histogram("serve.latency_cycles")
        report = ServeReport(
            workload=self.workload,
            scheme=self.scheme,
            num_shards=bank.num_shards,
            makespan_cycles=self._makespan,
        )
        for counts in self._tenant_counts:
            hist = registry.histogram(
                f"serve.tenant{counts.tenant}.latency_cycles"
            )
            counts.p50_latency = hist.quantile(0.5)
            counts.p99_latency = hist.quantile(0.99)
            report.tenants.append(counts)
            report.offered += counts.offered
            report.admitted += counts.admitted
            report.shed += counts.shed
            report.served += counts.served
            report.coalesced += counts.coalesced
        report.rerouted = registry.counter("serve.rerouted").value
        report.batches = registry.counter("serve.batches").value
        report.full_closes = registry.counter("serve.full_closes").value
        report.deadline_closes = registry.counter("serve.deadline_closes").value
        report.drain_closes = registry.counter("serve.drain_closes").value
        report.deadline_misses = registry.counter("serve.deadline_misses").value
        if report.served:
            report.mean_latency = self._sum_latency / report.served
        report.p50_latency = latency_hist.quantile(0.5)
        report.p99_latency = latency_hist.quantile(0.99)
        # Deliberately no serve-specific keys in sim.extra: replaying
        # ``issued`` through the raw bank must give this SimResult back,
        # field for field.
        report.sim = merge_shard_snapshots(
            bank.snapshot_shards(),
            self.access_completions,
            workload=self.workload,
            scheme=self.scheme,
        )
        return report
