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

Cost of an event: the front end is bookkeeping in front of the scarce
resource (the ORAM path access), so no event re-scans the open batches.
The state each decision reads is maintained where it changes --
``_unissued`` (the backlog), ``_close_at`` (per-shard deadline close),
``_quotas`` (per-shard batch quota), ``_keys`` (coalesce-key memo) and a
request's ``shard`` stamp -- under the four invariants of DESIGN.md
section 12, which ``tests/test_serve_incremental.py`` checks against the
scan-based definitions after every event.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import fields
from typing import Deque, Dict, List, Optional, Tuple

from repro.config import ServeConfig, SystemConfig
from repro.controller.sharded import build_bank
from repro.observability.collect import collect_serve
from repro.observability.metrics import CycleHistogram, MetricsRegistry
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
        #: stamped at issue time (completions free this shard's slot)
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

    A front end drives its bank's state forward, so :meth:`run` may be
    called once per instance.

    Counting: every event is a bare-attribute increment where it happens --
    per tenant in a :class:`TenantReport`, front-end wide in the
    :attr:`COUNTERS` attributes -- and the three :class:`CycleHistogram`
    attributes record on the event path.  :meth:`counters` is the one walk
    over them; the report and ``collect_serve`` both read it.
    """

    #: per-tenant counts (``TenantReport`` fields), summed by the walk
    TENANT_COUNTERS = ("offered", "admitted", "shed", "served", "coalesced")
    #: front-end-wide counts, one bare attribute each
    COUNTERS = (
        "shed_queue_full", "shed_backlog", "shed_pressure", "rerouted",
        "fallback_issues", "batches", "full_closes", "deadline_closes",
        "drain_closes", "deadline_misses",
    )

    def __init__(
        self,
        bank,
        serve_config: Optional[ServeConfig] = None,
        *,
        workload: str = "serve",
        scheme: str = "dyn",
    ):
        self.bank = bank
        self.config = serve_config or ServeConfig()
        self.health = bank.health
        self.workload = workload
        self.scheme = scheme
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.latency_cycles = CycleHistogram("serve.latency_cycles")
        self.queue_wait_cycles = CycleHistogram("serve.queue_wait_cycles")
        self.batch_occupancy = CycleHistogram("serve.batch_occupancy")
        self._tenant_counts: List[TenantReport] = []
        self._tenant_latency: List[CycleHistogram] = []
        num_shards = bank.num_shards
        self.queues: Optional[TenantQueues] = None
        self._open_batches: List[List[_Access]] = [[] for _ in range(num_shards)]
        self._open_groups: Dict[Tuple[int, int], _Access] = {}
        self._inflight_groups: Dict[Tuple[int, int], _Access] = {}
        self._outstanding: List[int] = [0] * num_shards
        self._fallback: List[Deque[Request]] = [deque() for _ in range(num_shards)]
        #: admitted-but-unissued requests: queued + open-batch + fallback
        self._unissued = 0
        #: deadline-close cycle of each shard's open batch (min over its
        #: member requests); ``None`` iff the batch is empty
        self._close_at: List[Optional[int]] = [None] * num_shards
        #: batch quota per shard, valid between two accesses on the shard
        self._quotas: List[int] = []
        #: addr -> coalesce key, valid between two ORAM accesses
        self._keys: Dict[int, Tuple[int, int]] = {}
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
        workload: str = "serve",
    ) -> "ServingFrontEnd":
        """Build a bank exactly as the serial reference does and wrap it.

        ``health_policy`` (a :class:`~repro.health.HealthPolicy`) attaches
        a control plane so admission rerouting and degraded quotas engage.
        """
        bank = build_bank(
            scheme, footprint_blocks, config or SystemConfig(), num_shards,
            health_policy=health_policy,
        )
        return cls(bank, serve_config, workload=workload, scheme=scheme)

    # ------------------------------------------------------------------- run
    def run(self, source: LoadSource) -> ServeReport:
        """Drive the source to exhaustion; return the serving report."""
        if self._ran:
            raise RuntimeError("a front end drives its bank once; build a new one")
        self._ran = True
        self.queues = TenantQueues(source.weights, self.config.queue_capacity)
        self._tenant_counts = [TenantReport(tenant=t) for t in range(source.num_tenants)]
        self._tenant_latency = [
            CycleHistogram(f"serve.tenant{t}.latency_cycles")
            for t in range(source.num_tenants)
        ]
        self._quotas = [self._quota(s) for s in range(self.bank.num_shards)]
        self._serve_loop(source)
        return self._finish()

    # ------------------------------------------------------------- event loop
    def _serve_loop(self, source: LoadSource) -> None:
        now = 0
        heap = self._comp_heap
        while True:
            wake = source.next_arrival_cycle()
            if heap and (wake is None or heap[0][0] < wake):
                wake = heap[0][0]
            close = self._next_close()
            if close is not None and (wake is None or close < wake):
                wake = close
            if wake is None:
                break
            if wake > now:
                now = wake
            while heap and heap[0][0] <= now:
                self._complete(heapq.heappop(heap)[2], source)
            for request in source.take_arrivals(now):
                self._admit(request, source, now)
            self._pump(source, now)

    # -------------------------------------------------------------- admission
    def _admit(self, request: Request, source: LoadSource, now: int) -> None:
        config = self.config
        counts = self._tenant_counts[request.tenant]
        self.all_requests.append(request)
        counts.offered += 1
        shard = request.shard = self.bank.shard_of(request.addr)
        if self.health is not None and self.health.should_reroute(shard):
            lane = self._fallback[shard]
            if len(lane) >= config.queue_capacity:
                self.shed_queue_full += 1
                self._shed(request, source, now)
                return
            request.rerouted = True
            lane.append(request)
            self.rerouted += 1
        elif (
            config.stash_shed_fraction > 0.0
            and self.bank.stash_fraction(shard) >= config.stash_shed_fraction
        ):
            self.shed_pressure += 1
            self._shed(request, source, now)
            return
        elif config.max_backlog and self._unissued >= config.max_backlog:
            self.shed_backlog += 1
            self._shed(request, source, now)
            return
        elif not self.queues.push(request):
            self.shed_queue_full += 1
            self._shed(request, source, now)
            return
        self._unissued += 1
        counts.admitted += 1

    def _shed(self, request: Request, source: LoadSource, now: int) -> None:
        """Refuse a request (the caller counted its ``shed_<cause>``)."""
        request.status = SHED
        self._tenant_counts[request.tenant].shed += 1
        source.on_shed(request, now)

    # ----------------------------------------------------- batching/coalescing
    def _quota(self, shard: int) -> int:
        throttled = self.health is not None and self.health.throttled(shard)
        return self.config.quota_for(throttled)

    def _next_close(self) -> Optional[int]:
        """Earliest deadline close among shards free to issue their batch."""
        earliest = None
        outstanding = self._outstanding
        for shard, close in enumerate(self._close_at):
            if close is not None and not outstanding[shard]:
                if earliest is None or close < earliest:
                    earliest = close
        return earliest

    def _key(self, addr: int) -> Tuple[int, int]:
        """Memoised ``bank.coalesce_key``; :meth:`_issue_one` invalidates."""
        key = self._keys.get(addr)
        if key is None:
            key = self._keys[addr] = self.bank.coalesce_key(addr)
        return key

    def _placeable(self, request: Request) -> bool:
        if self.config.coalesce:
            key = self._key(request.addr)
            if key in self._open_groups:
                return True
            if key in self._inflight_groups and not request.is_write:
                return True
        shard = request.shard
        return len(self._open_batches[shard]) < self._quotas[shard]

    def _place(self, request: Request) -> None:
        shard = request.shard
        key = self._key(request.addr) if self.config.coalesce else None
        # ``None`` (coalescing off) is never a group key: both gets miss.
        access = self._open_groups.get(key)
        if access is not None:
            access.requests.append(request)
            access.is_write = access.is_write or request.is_write
            self._mark_coalesced(request)
        else:
            inflight = self._inflight_groups.get(key)
            if inflight is not None and not request.is_write:
                # MSHR-style: the super block is already on its way; ride
                # the pending access and share its completion.
                inflight.requests.append(request)
                self._unissued -= 1
                self._mark_coalesced(request)
                return
            access = _Access(request, key)
            self._open_batches[shard].append(access)
            if key is not None:
                self._open_groups[key] = access
        # The request joined the shard's open batch: fold its close cycle in.
        close = request.arrival_cycle + int(
            request.deadline_cycles * self.config.deadline_close_fraction
        )
        if self._close_at[shard] is None or close < self._close_at[shard]:
            self._close_at[shard] = close

    def _mark_coalesced(self, request: Request) -> None:
        request.coalesced = True
        self._tenant_counts[request.tenant].coalesced += 1

    def _pump(self, source: LoadSource, now: int) -> None:
        """Fill batches from the fair queues and issue every ready one.

        Runs to a fixpoint: closing a batch frees quota, which may make
        more queued requests placeable, which may fill another batch.
        """
        queues = self.queues
        while True:
            progress = False
            while True:
                request = queues.pop_where(self._placeable)
                if request is None:
                    break
                self._place(request)
                progress = True
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
                if len(batch) >= self._quotas[shard]:
                    self.full_closes += 1
                elif now >= self._close_at[shard]:
                    self.deadline_closes += 1
                elif source.exhausted and not queues:
                    self.drain_closes += 1
                else:
                    continue
                self._issue_batch(shard, now)
                progress = True
            if not progress:
                break

    # ---------------------------------------------------------------- issuing
    def _issue_one(self, access: _Access, shard: int, now: int) -> None:
        result = self.bank.demand_access(access.addr, now, access.is_write)
        # The only place super-block membership and the shard's breaker
        # move during a run: drop the key memo, re-read the shard's quota.
        self._keys.clear()
        if self.health is not None:
            self._quotas[shard] = self._quota(shard)
        access.shard = shard
        completion = access.completion_cycle = result.completion_cycle
        self.issued.append((access.addr, now, access.is_write))
        self.access_completions.append(completion)
        self._outstanding[shard] += 1
        self._unissued -= len(access.requests)
        if self.config.coalesce:
            access.inflight_key = self._key(access.addr)
            self._inflight_groups[access.inflight_key] = access
        record_wait = self.queue_wait_cycles.record
        for request in access.requests:
            record_wait(now - request.arrival_cycle)
        heapq.heappush(self._comp_heap, (completion, self._event_seq, access))
        self._event_seq += 1

    def _issue_fallback(self, shard: int, now: int) -> None:
        """Serial fallback lane: one rerouted request, one padded access."""
        access = _Access(self._fallback[shard].popleft(), None)
        self.fallback_issues += 1
        self._issue_one(access, shard, now)

    def _issue_batch(self, shard: int, now: int) -> None:
        """Issue a shard's open batch (the caller counted its close reason)."""
        batch = self._open_batches[shard]
        self._open_batches[shard] = []
        self._close_at[shard] = None
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
        self.batches += 1
        self.batch_occupancy.record(len(final))
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
        if cycle > self._makespan:
            self._makespan = cycle
        for request in access.requests:
            request.status = SERVED
            request.completion_cycle = cycle
            latency = cycle - request.arrival_cycle
            self._sum_latency += latency
            self.latency_cycles.record(latency)
            self._tenant_latency[request.tenant].record(latency)
            self._tenant_counts[request.tenant].served += 1
            if latency > request.deadline_cycles:
                self.deadline_misses += 1
            source.on_completion(request, cycle)

    # --------------------------------------------------------------- report
    def counters(self) -> Dict[str, int]:
        """The one walk: every ``serve.*`` count by its bare name -- the
        :attr:`TENANT_COUNTERS` summed over tenants, then :attr:`COUNTERS`."""
        counts = {
            name: sum(getattr(tenant, name) for tenant in self._tenant_counts)
            for name in self.TENANT_COUNTERS
        }
        counts.update((name, getattr(self, name)) for name in self.COUNTERS)
        return counts

    def histograms(self) -> List[CycleHistogram]:
        """The distributions beside :meth:`counters`: request latency (whole
        run and per tenant) always, queue wait and batch occupancy once they
        hold a sample."""
        optional = (self.queue_wait_cycles, self.batch_occupancy)
        return (
            [self.latency_cycles]
            + [hist for hist in optional if hist.total]
            + self._tenant_latency
        )

    @property
    def registry(self) -> MetricsRegistry:
        """Read view: a fresh ``collect_serve`` walk."""
        return collect_serve(self)

    def _finish(self) -> ServeReport:
        bank = self.bank
        bank.finalize(self._makespan)
        totals = self.counters()
        report = ServeReport(
            workload=self.workload,
            scheme=self.scheme,
            num_shards=bank.num_shards,
            makespan_cycles=self._makespan,
            **{
                field.name: totals[field.name]
                for field in fields(ServeReport)
                if field.name in totals
            },
        )
        for counts, hist in zip(self._tenant_counts, self._tenant_latency):
            counts.p50_latency = hist.quantile(0.5)
            counts.p99_latency = hist.quantile(0.99)
            report.tenants.append(counts)
        if report.served:
            report.mean_latency = self._sum_latency / report.served
        report.p50_latency = self.latency_cycles.quantile(0.5)
        report.p99_latency = self.latency_cycles.quantile(0.99)
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
