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

Health integration: DEGRADED shards get half-sized batches; QUARANTINED
shards are rerouted at admission onto a serial fallback lane whose
accesses the bank's health step pads with dummy paths.

Security: a request's home shard is ``addr % N``, the bank's interleave,
with the bank's leak -- the channel each access goes down shows the
address modulo N (the security note of :mod:`repro.controller.sharded`;
``tests/test_bank_leak.py`` measures 1.999 bits per request at N = 4).

Everything ties are broken on (cycle, sequence) pairs, so a run is a pure
function of (source, config, bank seed).  The front end only decides
*when* to call ``bank.demand_access``; :attr:`ServingFrontEnd.issued`
records those calls, and feeding that schedule to
:func:`repro.parallel.merge.run_serial_reference` (or
``ParallelShardRuntime.run``) over a fresh bank of the same shape returns
the identical SimResult -- the replay contract that pins the front end to
the raw bank, with every policy on.

Cost of an event: the front end is bookkeeping in front of the scarce
resource (the ORAM path access), so no event re-scans the open batches or
the shards, and no per-request helper frame does what bytecode can do
inline.  The state each decision reads is maintained where it changes --
``_unissued`` (the backlog), ``_close_at`` (per-shard deadline close) and
the ``_closes`` heap of free shards' closes, ``_sizes`` / ``_quotas``
(per-shard open-batch size and batch quota), ``_ready`` (the shards whose
issue condition may have turned true), ``_keys`` (coalesce-key memo),
``_shedding`` (stash watermark), the source's ``next_arrival_cycle`` /
``exhausted``, ``queues.queued`` and a request's ``shard`` stamp -- under
the invariants of DESIGN.md section 12, which
``tests/test_serve_incremental.py`` checks against the scan-based
definitions after every event.  A placement is inline in :meth:`_pump`;
the fair pick stays in :meth:`TenantQueues.pop_where`, which calls the
:meth:`_placeable` predicate only for a head whose shard's batch is full,
once per round of picks.
The distributions are not recorded per request: a request carries its
arrival, issue and completion cycles, and :meth:`_finish` folds them into
the histograms once per run.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
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
    :attr:`COUNTERS` attributes.  Of the :class:`CycleHistogram`
    attributes only the batch occupancy records on the event path (once
    per batch); latency, per-tenant latency and queue wait are folded from
    the requests' cycle stamps when the run ends, so they are complete
    once :meth:`run` returns.  :meth:`counters` is the one walk over them;
    the report and ``collect_serve`` both read it.  A fact is counted once:
    what follows from other counts (offered, served, batches, the latency
    sum, the makespan) is derived where it is read.
    """

    #: per-tenant counts (``TenantReport`` fields), summed by the walk
    TENANT_COUNTERS = ("admitted", "shed", "coalesced")
    #: front-end-wide counts, one bare attribute each
    COUNTERS = (
        "shed_queue_full", "shed_backlog", "shed_pressure", "rerouted",
        "fallback_issues", "full_closes", "deadline_closes", "drain_closes",
        "deadline_misses",
    )
    #: the fifteen ``serve.*`` names :meth:`counters` reports, in order; the
    #: three no attribute counts are derived there: ``offered = admitted +
    #: shed``, ``served`` is the latency histogram's sample count and
    #: ``batches`` the batch-occupancy histogram's
    REPORTED = (
        "offered", "admitted", "shed", "served", "coalesced",
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
        #: accesses in each shard's open batch (its ``len``)
        self._sizes: List[int] = [0] * num_shards
        self._open_groups: Dict[Tuple[int, int], _Access] = {}
        self._inflight_groups: Dict[Tuple[int, int], _Access] = {}
        self._outstanding: List[int] = [0] * num_shards
        self._fallback: List[Deque[Request]] = [deque() for _ in range(num_shards)]
        #: admitted-but-unissued requests: queued + open-batch + fallback
        self._unissued = 0
        #: deadline-close cycle of each shard's open batch (min over its
        #: member requests); ``None`` iff the batch is empty
        self._close_at: List[Optional[int]] = [None] * num_shards
        #: ``(close cycle, shard)`` heap holding every free shard's open
        #: batch close; an entry whose shard's close moved on, or whose
        #: shard is busy, is stale and dropped when it surfaces
        self._closes: List[Tuple[int, int]] = []
        #: bitmask of the shards whose issue condition may have turned true
        #: since the pump last looked (completion, fallback admission,
        #: placement, a close falling due); the pump examines only these
        self._ready = 0
        #: requests left queued when the pump last reached its fixpoint:
        #: heads it could not place, which stay unplaceable until a push
        #: or a mark
        self._settled = 0
        #: batch quota per shard, valid between two accesses on the shard
        self._quotas: List[int] = []
        #: a throttled shard's quota: half the batch size, at least 1
        self._throttled_quota = max(1, self.config.batch_size // 2)
        #: each shard's stash, read by the pressure watermark
        self._stashes = [shard.oram.stash for shard in bank.shards]
        #: per shard: is the stash at the shedding watermark?  A stash moves
        #: only inside an access, so this is re-read after each one
        self._shedding: List[bool] = []
        #: addr -> coalesce key, valid until an access on the key's shard
        #: moves its aligned group (see ``_spans``)
        self._keys: Dict[int, Tuple[int, int]] = {}
        #: per shard, the scheme's ``membership_span``: the memo entries an
        #: access invalidates (0 none, None all)
        self._spans: List[Optional[int]] = []
        self._comp_heap: List[Tuple[int, int, _Access]] = []
        self._event_seq = 0
        #: (addr, issue_cycle, is_write) in issue order -- replayable
        #: through ``run_serial_reference`` / ``ParallelShardRuntime.run``
        self.issued: List[Tuple[int, int, bool]] = []
        #: completion cycle per issued access, in issue order
        self.access_completions: List[int] = []
        self.all_requests: List[Request] = []
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
        shards = range(self.bank.num_shards)
        self._quotas = [self._quota(s) for s in shards]
        self._shedding = [self._at_watermark(s) for s in shards]
        self._spans = [
            shard.scheme.membership_span if self.config.coalesce else 0
            for shard in self.bank.shards
        ]
        self._serve_loop(source)
        return self._finish()

    # ------------------------------------------------------------- event loop
    def _serve_loop(self, source: LoadSource) -> None:
        now = 0
        heap = self._comp_heap
        closes = self._closes
        close_at = self._close_at
        outstanding = self._outstanding
        feedback = source.feedback
        while True:
            arrival = wake = source.next_arrival_cycle
            if heap and (wake is None or heap[0][0] < wake):
                wake = heap[0][0]
            # The earliest deadline close among shards free to issue: the
            # first live entry of the close heap.
            while closes:
                close, shard = closes[0]
                if close == close_at[shard] and not outstanding[shard]:
                    if wake is None or close < wake:
                        wake = close
                    break
                heapq.heappop(closes)
            if wake is None:
                break
            if wake > now:
                now = wake
            while heap and heap[0][0] <= now:
                self._complete(heapq.heappop(heap)[2], source)
            # A close falling due marks its shard for the pump.
            while closes and closes[0][0] <= now:
                close, shard = heapq.heappop(closes)
                if close == close_at[shard] and not outstanding[shard]:
                    self._ready |= 1 << shard
            # Without feedback, completions schedule nothing: arrivals are
            # due only if the one peeked above is.
            if feedback or (arrival is not None and arrival <= now):
                for request in source.take_arrivals(now):
                    self._admit(request, source, now)
            self._pump(source, now)

    # -------------------------------------------------------------- admission
    def _admit(self, request: Request, source: LoadSource, now: int) -> None:
        config = self.config
        counts = self._tenant_counts[request.tenant]
        self.all_requests.append(request)
        shard = request.shard = request.addr % self.bank.num_shards
        if self.health is not None and self.health.should_reroute(shard):
            lane = self._fallback[shard]
            if len(lane) >= config.queue_capacity:
                self.shed_queue_full += 1
                self._shed(request, source, now)
                return
            request.rerouted = True
            lane.append(request)
            self._ready |= 1 << shard
            self.rerouted += 1
        elif self._shedding[shard]:
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
        if source.feedback:
            source.on_shed(request, now)

    def _at_watermark(self, shard: int) -> bool:
        """Is the shard's stash at or above the shedding watermark?"""
        fraction = self.config.stash_shed_fraction
        stash = self._stashes[shard]
        return fraction > 0.0 and len(stash.blocks) / stash.capacity >= fraction

    # ----------------------------------------------------- batching/coalescing
    def _quota(self, shard: int) -> int:
        """The batch quota; half of it (at least 1) for a throttled shard."""
        if self.health is not None and self.health.throttled(shard):
            return self._throttled_quota
        return self.config.batch_size

    def _placeable(self, request: Request) -> bool:
        """Can *request*, whose shard's batch is full, still be placed: does
        it coalesce onto an open group (or, a read, onto an in-flight one)?
        :meth:`TenantQueues.pop_where` asks only about such heads."""
        if self.config.coalesce:
            addr = request.addr
            keys = self._keys
            if addr in keys:
                key = keys[addr]
            else:
                key = keys[addr] = self.bank.coalesce_key(addr)
            if key in self._open_groups:
                return True
            if key in self._inflight_groups and not request.is_write:
                return True
        return False

    def _pump(self, source: LoadSource, now: int) -> None:
        """Fill batches from the fair queues and issue every ready one.

        Runs to a fixpoint: closing a batch frees quota, which may make
        more queued requests placeable, which may fill another batch.  Only
        the shards marked in ``_ready`` or placed into are examined, in
        shard order (the order a scan of every shard would issue them in).
        """
        queues = self.queues
        ready = self._ready
        if not ready and queues.queued == self._settled and not source.exhausted:
            # Nothing was marked or queued since the last fixpoint, and a
            # completion only frees a shard (which marks it) or retires an
            # in-flight group (which places nothing): no head can be placed
            # and no batch issued.
            return
        self._ready = 0
        coalesce = self.config.coalesce
        fraction = self.config.deadline_close_fraction
        keys = self._keys
        coalesce_key = self.bank.coalesce_key
        open_groups = self._open_groups
        inflight_groups = self._inflight_groups
        open_batches = self._open_batches
        sizes = self._sizes
        quotas = self._quotas
        close_at = self._close_at
        closes = self._closes
        outstanding = self._outstanding
        fallback = self._fallback
        placeable = self._placeable
        tenants = queues.num_tenants
        while True:
            progress = False
            # The tenants whose head was judged unplaceable in this round of
            # picks.  Until the issue pass below, such a head stays
            # unplaceable: its shard's batch only fills, no group opens on
            # a full shard, no in-flight group starts or retires, and an
            # unpopped tenant keeps its head -- so it is judged once.
            blocked = [False] * tenants
            while queues.queued:
                request = queues.pop_where(placeable, sizes, quotas, blocked)
                if request is None:
                    break
                progress = True
                shard = request.shard
                key = None
                grouped = False
                if coalesce:
                    addr = request.addr
                    if addr in keys:
                        key = keys[addr]
                    else:
                        key = keys[addr] = coalesce_key(addr)
                    if key in open_groups:
                        access = open_groups[key]
                        access.requests.append(request)
                        access.is_write = access.is_write or request.is_write
                        request.coalesced = True
                        self._tenant_counts[request.tenant].coalesced += 1
                        grouped = True
                    elif key in inflight_groups and not request.is_write:
                        # MSHR-style: the super block is already on its
                        # way; ride the pending access and share its
                        # completion.
                        inflight_groups[key].requests.append(request)
                        self._unissued -= 1
                        request.coalesced = True
                        self._tenant_counts[request.tenant].coalesced += 1
                        continue
                if not grouped:
                    access = _Access(request, key)
                    open_batches[shard].append(access)
                    if key is not None:
                        open_groups[key] = access
                    sizes[shard] += 1
                # The request joined the shard's open batch: fold its
                # close cycle in, and look at the shard this round.
                close = request.arrival_cycle + int(
                    request.deadline_cycles * fraction
                )
                if close_at[shard] is None or close < close_at[shard]:
                    close_at[shard] = close
                    if not outstanding[shard]:
                        heapq.heappush(closes, (close, shard))
                ready |= 1 << shard
            # Once nothing is queued or will arrive, every open batch drains.
            draining = not queues.queued and source.exhausted
            if draining:
                ready = (1 << len(sizes)) - 1
            shard = -1
            while ready:
                shard += 1
                marked = ready & 1
                ready >>= 1
                if not marked or outstanding[shard]:
                    continue
                if fallback[shard]:
                    self._issue_fallback(shard, now)
                    progress = True
                    continue
                if not open_batches[shard]:
                    continue
                if sizes[shard] >= quotas[shard]:
                    self.full_closes += 1
                elif now >= close_at[shard]:
                    self.deadline_closes += 1
                elif draining:
                    self.drain_closes += 1
                else:
                    continue
                self._issue_batch(shard, now)
                progress = True
            if not progress:
                break
        self._settled = queues.queued

    # ---------------------------------------------------------------- issuing
    def _issue_one(self, access: _Access, shard: int, now: int) -> None:
        addr = access.addr
        completion, _ = self.bank.demand_access(addr, now, access.is_write)
        # The only place super-block membership, the stash and the shard's
        # breaker move during a run.  An access moves membership only
        # inside its aligned group of ``span`` blocks on the shard: drop
        # those memo entries (every entry for a scheme with no aligned
        # bound), re-read the stash watermark and the shard's quota.
        keys = self._keys
        span = self._spans[shard]
        if span is None:
            keys.clear()
        elif span:
            stride = self.bank.num_shards
            member = ((addr // stride) & ~(span - 1)) * stride + shard
            end = member + span * stride
            while member < end:
                if member in keys:
                    del keys[member]
                member += stride
        fraction = self.config.stash_shed_fraction
        if fraction > 0.0:  # _at_watermark, inline
            stash = self._stashes[shard]
            self._shedding[shard] = len(stash.blocks) / stash.capacity >= fraction
        if self.health is not None:
            self._quotas[shard] = (
                self._throttled_quota
                if self.health.throttled(shard)
                else self.config.batch_size
            )
        access.shard = shard
        access.completion_cycle = completion
        self.issued.append((addr, now, access.is_write))
        self.access_completions.append(completion)
        self._outstanding[shard] += 1
        unissued = self._unissued
        for request in access.requests:
            request.issue_cycle = now
            unissued -= 1
        self._unissued = unissued
        if self.config.coalesce:
            if addr in keys:
                key = keys[addr]
            else:
                key = keys[addr] = self.bank.coalesce_key(addr)
            access.inflight_key = key
            self._inflight_groups[key] = access
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
        self._sizes[shard] = 0
        self._close_at[shard] = None
        open_groups = self._open_groups
        for access in batch:
            if access.key is not None:
                del open_groups[access.key]
        # Super-block membership may have shifted (merges/breaks) since the
        # group formed; requests no longer riding the leader's super block
        # get their own access, issued right after it, so nobody is
        # "served" by a path that never touched their block.
        final = batch  # copied only once a member has drifted
        stride = self.bank.num_shards
        scheme = self.bank.shards[shard].scheme
        for index, access in enumerate(batch):
            if final is not batch:
                final.append(access)
            requests = access.requests
            if requests[-1] is requests[0]:
                continue  # a lone request cannot drift
            members = set(scheme.members_for(access.addr // stride))
            keep = [requests[0]]
            for request in requests[1:]:
                if request.addr // stride in members:
                    keep.append(request)
                else:
                    if final is batch:
                        final = batch[: index + 1]
                    final.append(_Access(request, None))
            if len(keep) != len(requests):
                access.requests = keep
                access.is_write = any(r.is_write for r in keep)
        self.batch_occupancy.record(len(final))
        for access in final:
            self._issue_one(access, shard, now)

    # ------------------------------------------------------------- completion
    def _complete(self, access: _Access, source: LoadSource) -> None:
        shard = access.shard
        outstanding = self._outstanding
        outstanding[shard] -= 1
        if not outstanding[shard]:
            # The shard is free again: look at it, and let its open batch's
            # close wake the loop.
            self._ready |= 1 << shard
            close = self._close_at[shard]
            if close is not None:
                heapq.heappush(self._closes, (close, shard))
        key = access.inflight_key
        inflight_groups = self._inflight_groups
        # (``None``, coalescing off, is never a key.)
        if key in inflight_groups and inflight_groups[key] is access:
            del inflight_groups[key]
        cycle = access.completion_cycle
        for request in access.requests:
            request.status = SERVED
            request.completion_cycle = cycle
            if cycle - request.arrival_cycle > request.deadline_cycles:
                self.deadline_misses += 1
            if source.feedback:
                source.on_completion(request, cycle)

    # --------------------------------------------------------------- report
    def counters(self) -> Dict[str, int]:
        """The one walk: every ``serve.*`` count by its bare name, in
        :attr:`REPORTED` order -- the :attr:`TENANT_COUNTERS` summed over
        tenants, the :attr:`COUNTERS` and the three derived totals."""
        counts = {
            name: sum(getattr(tenant, name) for tenant in self._tenant_counts)
            for name in self.TENANT_COUNTERS
        }
        counts.update((name, getattr(self, name)) for name in self.COUNTERS)
        counts["offered"] = counts["admitted"] + counts["shed"]
        counts["served"] = self.latency_cycles.total
        counts["batches"] = self.batch_occupancy.total
        return {name: counts[name] for name in self.REPORTED}

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

    def _fold_histograms(self, makespan: int) -> None:
        """Fold every request's cycle stamps into the latency (whole run
        and per tenant) and queue-wait histograms: one sort and O(buckets)
        bisections per histogram, no call per sample."""
        requests = self.all_requests
        # Arrivals and completions are cycles in [0, bound], so a latency
        # lies in [-bound, bound].  Packed as ``(tenant << shift) +
        # latency`` the samples sort by tenant, then latency, each tenant
        # within its own window of the one list (a negative latency stays
        # in its tenant's window, where the fold refuses it).
        bound = max(makespan, requests[-1].arrival_cycle if requests else 0)
        shift = bound.bit_length() + 1
        half = 1 << (shift - 1)
        samples = [
            (request.tenant << shift) + request.completion_cycle
            - request.arrival_cycle
            for request in requests
            if request.status == SERVED
        ]
        samples.sort()
        lo = 0
        for tenant, hist in enumerate(self._tenant_latency):
            base = tenant << shift
            hi = bisect_left(samples, base + half, lo)
            hist.fold(samples, lo, hi, base)
            self.latency_cycles.merge(hist)
            lo = hi
        del samples  # one sample list alive at a time
        # A read that latched onto an in-flight access never waited.
        samples = [
            request.issue_cycle - request.arrival_cycle
            for request in requests
            if request.issue_cycle >= 0
        ]
        samples.sort()
        self.queue_wait_cycles.fold(samples)

    def _finish(self) -> ServeReport:
        bank = self.bank
        makespan = max(self.access_completions, default=0)
        bank.finalize(makespan)
        self._keys.clear()  # it serves the run; keep no address it saw
        self._fold_histograms(makespan)
        totals = self.counters()
        report = ServeReport(
            workload=self.workload,
            scheme=self.scheme,
            num_shards=bank.num_shards,
            makespan_cycles=makespan,
            **{
                field.name: totals[field.name]
                for field in fields(ServeReport)
                if field.name in totals
            },
        )
        for counts, hist in zip(self._tenant_counts, self._tenant_latency):
            counts.offered = counts.admitted + counts.shed
            counts.served = hist.total
            counts.p50_latency = hist.quantile(0.5)
            counts.p99_latency = hist.quantile(0.99)
            report.tenants.append(counts)
        if report.served:
            report.mean_latency = self.latency_cycles.sum / report.served
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
