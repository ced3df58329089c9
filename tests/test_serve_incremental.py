"""Differential test: the front end's incremental per-event state vs the
scan-based definitions it replaced.

``ServingFrontEnd`` keeps a backlog counter, a per-shard close cycle, a
per-shard open-batch size and quota, a coalesce-key memo, a queued count
and a shard stamp on each request instead of recomputing them on every
arrival.  The functions below are the pre-refactor definitions, kept here
(and only here) as the oracle:

* :func:`reference_backlog` re-sums every queue, every request of every
  open batch and every fallback lane -- the old ``_backlog``;
* :func:`reference_close_cycle` re-takes the min over every request of a
  shard's open batch -- the old ``_close_cycle`` -- and
  :func:`reference_next_close` the old ``_next_close`` over it;
* :func:`reference_quota` asks the health plane afresh;
* :func:`reference_placeable` is the old ``_placeable``: a fresh
  ``bank.coalesce_key``, the open batch's ``len`` and a live quota for
  every tenant head;
* :func:`reference_pick` is the old two-pass weighted round-robin over the
  heads :func:`reference_placeable` admits;
* :func:`reference_exhausted` is the old closed-loop ``exhausted`` scan.

:class:`CheckedFrontEnd` compares them after every admission, placement,
issue, completion and pump round of a run, on every eligibility decision
and on every fair pick, and checks that the event loop wakes at the
earliest arrival, completion or deadline close the reference sees.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServeConfig, SystemConfig
from repro.health import HealthPolicy
from repro.serve import ClosedLoopSource, OpenLoopSource, ServingFrontEnd


# ------------------------------------------------------------- the reference
def reference_backlog(frontend):
    return (
        frontend.queues.total_depth()
        + sum(
            len(access.requests)
            for batch in frontend._open_batches
            for access in batch
        )
        + sum(len(lane) for lane in frontend._fallback)
    )


def reference_close_cycle(frontend, shard):
    """Min over the open batch's requests; ``None`` for an empty batch."""
    fraction = frontend.config.deadline_close_fraction
    return min(
        (
            request.arrival_cycle + int(request.deadline_cycles * fraction)
            for access in frontend._open_batches[shard]
            for request in access.requests
        ),
        default=None,
    )


def reference_next_close(frontend):
    cycles = [
        reference_close_cycle(frontend, shard)
        for shard in range(frontend.bank.num_shards)
        if frontend._open_batches[shard] and not frontend._outstanding[shard]
    ]
    return min(cycles) if cycles else None


def reference_quota(frontend, shard):
    """A throttled shard's quota is half the batch size, never below 1."""
    batch_size = frontend.config.batch_size
    health = frontend.health
    if health is not None and health.throttled(shard):
        return max(1, batch_size // 2)
    return batch_size


def reference_placeable(frontend, request):
    bank = frontend.bank
    shard = bank.shard_of(request.addr)
    if frontend.config.coalesce:
        key = bank.coalesce_key(request.addr)
        if key in frontend._open_groups:
            return True
        if key in frontend._inflight_groups and not request.is_write:
            return True
    return len(frontend._open_batches[shard]) < reference_quota(frontend, shard)


def reference_pick(frontend, predicate):
    """``(tenant, credits after the pick)`` of the weighted round-robin over
    the heads passing *predicate*; ``(None, credits)`` when none does."""
    queues = frontend.queues
    credit = list(queues._credit)
    candidates = [
        tenant
        for tenant, queue in enumerate(queues._queues)
        if queue and predicate(queue[0])
    ]
    if not candidates:
        return None, credit
    total = 0
    best = -1
    for tenant in candidates:
        credit[tenant] += queues.weights[tenant]
        total += queues.weights[tenant]
        if best < 0 or credit[tenant] > credit[best]:
            best = tenant
    credit[best] -= total
    return best, credit


def reference_wake(frontend):
    """The cycle the old event loop woke at next: the earliest of the next
    arrival, the next completion and :func:`reference_next_close`."""
    cycles = [
        frontend.source.next_arrival_cycle(),
        frontend._comp_heap[0][0] if frontend._comp_heap else None,
        reference_next_close(frontend),
    ]
    return min((cycle for cycle in cycles if cycle is not None), default=None)


def reference_exhausted(source):
    if isinstance(source, ClosedLoopSource):
        return not source._heap and all(r == 0 for r in source._remaining)
    return source._index == len(source._arrivals)


# ---------------------------------------------------------- the checked run
class CheckedFrontEnd(ServingFrontEnd):
    """A front end that audits its incremental state as it runs."""

    checks = 0
    #: accesses `_issue_batch` added because a group's members had drifted
    splits = 0
    #: fair picks made without a predicate (every shard's batch had room)
    unfiltered_picks = 0
    #: heads judged by ``_placeable`` (some shard's batch was full)
    placeable_calls = 0

    def run(self, source):
        self.source = source
        #: distinct quota vectors seen (a mid-run change shows up as > 1)
        self.quota_vectors = set()
        return super().run(source)

    def check(self):
        self.checks += 1
        bank = self.bank
        assert self._unissued == reference_backlog(self)
        assert self.queues.queued == self.queues.total_depth()
        for shard in range(bank.num_shards):
            assert self._close_at[shard] == reference_close_cycle(self, shard)
            assert (self._close_at[shard] is None) == (not self._open_batches[shard])
            assert self._sizes[shard] == len(self._open_batches[shard])
            assert self._quotas[shard] == reference_quota(self, shard)
        for addr, key in self._keys.items():
            assert key == bank.coalesce_key(addr)
        for queue in self.queues._queues:
            for request in queue:
                assert request.shard == bank.shard_of(request.addr)
        assert self.source.exhausted == reference_exhausted(self.source)
        self.quota_vectors.add(tuple(self._quotas))

    def _serve_loop(self, source):
        # Placements are inline in ``_pump``: the checks run at every fair
        # pick, which follows the previous placement (the state it left)
        # and precedes the next.
        queues = self.queues
        pick = queues.pop_where

        def checked_pop_where(eligible=None):
            self.check()
            if eligible is None:
                self.unfiltered_picks += 1
                assert all(
                    reference_placeable(self, queue[0])
                    for queue in queues._queues
                    if queue
                )
            tenant, credit = reference_pick(
                self, lambda head: reference_placeable(self, head)
            )
            heads = [queue[0] if queue else None for queue in queues._queues]
            request = pick(eligible)
            if tenant is None:
                assert request is None
            else:
                assert request is heads[tenant]
            assert queues._credit == credit
            return request

        queues.pop_where = checked_pop_where
        self.clock = 0
        self.wake = reference_wake(self)
        super()._serve_loop(source)
        assert self.wake is None

    def _placeable(self, request):
        self.placeable_calls += 1
        answer = super()._placeable(request)
        assert answer == reference_placeable(self, request)
        return answer

    def _pump(self, source, now):
        assert now == max(self.clock, self.wake)
        self.clock = now
        super()._pump(source, now)
        self.check()
        self.wake = reference_wake(self)

    def _issue_batch(self, shard, now):
        self.check()
        accesses = len(self._open_batches[shard])
        before = len(self.issued)
        super()._issue_batch(shard, now)
        self.splits += len(self.issued) - before - accesses
        self.check()

    def _issue_fallback(self, shard, now):
        self.check()
        super()._issue_fallback(shard, now)
        self.check()


def _checked(name):
    def method(self, *args):
        result = getattr(ServingFrontEnd, name)(self, *args)
        self.check()
        return result

    method.__name__ = name
    return method


for _name in ("_admit", "_complete"):
    setattr(CheckedFrontEnd, _name, _checked(_name))


def tight_oram():
    """2-slot buckets: a block or two lingers in the stash between accesses,
    so a low ``stash_shed_fraction`` / ``stash_pressure_fraction`` fires."""
    base = SystemConfig()
    return dataclasses.replace(
        base, oram=dataclasses.replace(base.oram, bucket_size=2, utilization=0.5)
    )


def build(source, shards=1, scheme="dyn", config=None, serve_config=None,
          health_policy=None):
    return CheckedFrontEnd.build(
        scheme, source.footprint_blocks, config or SystemConfig(), shards,
        serve_config=serve_config, health_policy=health_policy,
        workload="incremental",
    )


def run_checked(frontend, source):
    report = frontend.run(source)
    assert frontend.checks > report.offered
    assert frontend._unissued == 0
    assert frontend._close_at == [None] * frontend.bank.num_shards
    assert report.served + report.shed == report.offered
    frontend.bank.check_invariants()
    return report


# --------------------------------------------------- fixed, named mechanisms
def test_all_three_shed_causes():
    source = OpenLoopSource.synthetic(
        2, 300, footprint_per_tenant=256, gap_mean=250.0, weights=[2, 1], seed=21
    )
    frontend = build(
        source, config=tight_oram(),
        serve_config=ServeConfig(
            queue_capacity=8, max_backlog=22, stash_shed_fraction=0.02
        ),
    )
    run_checked(frontend, source)
    for cause in ("queue_full", "backlog", "pressure"):
        assert frontend.registry.value(f"serve.shed_{cause}") > 0


def test_quarantined_shard_fallback_probes_and_readmission():
    source = OpenLoopSource.synthetic(
        2, 120, footprint_per_tenant=64, gap_mean=1_200.0, seed=6
    )
    frontend = build(source, shards=2, health_policy=HealthPolicy())
    frontend.bank.quarantine_shard(0)
    report = run_checked(frontend, source)
    assert report.rerouted > 0
    assert frontend.health.total_readmissions() == 1
    # quota 4 while shard 0 was quarantined/probing, 8 once re-admitted
    assert len(frontend.quota_vectors) > 1


def test_fallback_lane_overflow_sheds():
    source = OpenLoopSource.synthetic(
        2, 150, footprint_per_tenant=64, gap_mean=150.0, seed=6
    )
    frontend = build(
        source, shards=2, health_policy=HealthPolicy(),
        serve_config=ServeConfig(queue_capacity=4),
    )
    frontend.bank.quarantine_shard(0)
    report = run_checked(frontend, source)
    assert report.rerouted > 0 and report.shed > 0


def test_shard_degrades_mid_run():
    source = OpenLoopSource.synthetic(
        2, 150, footprint_per_tenant=128, gap_mean=500.0, seed=8
    )
    policy = HealthPolicy(window=8, degrade_latency_cycles=1)
    frontend = build(source, shards=2, health_policy=policy)
    run_checked(frontend, source)
    assert frontend.health.total_transitions() > 0
    assert len(frontend.quota_vectors) > 1
    # both pick paths ran: unfiltered while every batch had room, judged
    # head by head once one filled
    assert frontend.unfiltered_picks > 0 and frontend.placeable_calls > 0


def test_static_super_blocks_coalesce_and_recheck_members():
    source = OpenLoopSource.synthetic(
        2, 150, footprint_per_tenant=32, gap_mean=300.0, locality=0.9, seed=4
    )
    frontend = build(source, scheme="stat")
    report = run_checked(frontend, source)
    assert report.coalesced > 10


def test_stale_members_split_at_issue():
    """A group formed while its shard was probing can outlive a fallback
    access that breaks its super block; the batch then issues the drifted
    member on its own access."""
    source, frontend = stale_split_scenario()
    run_checked(frontend, source)
    assert frontend.splits > 0


def stale_split_scenario():
    source = OpenLoopSource.synthetic(
        2, 200, footprint_per_tenant=8, gap_mean=150.0, locality=0.5, seed=1
    )
    policy = HealthPolicy(quarantine_cooldown=6, probe_batch=16, probe_successes=16)
    frontend = build(source, shards=1, health_policy=policy)
    frontend.bank.quarantine_shard(0)
    return source, frontend


def test_coalescing_off():
    source = OpenLoopSource.synthetic(
        2, 120, footprint_per_tenant=32, gap_mean=300.0, locality=0.9, seed=4
    )
    frontend = build(source, serve_config=ServeConfig(coalesce=False))
    report = run_checked(frontend, source)
    assert report.coalesced == 0
    assert not frontend._keys


def test_closed_loop_source():
    source = ClosedLoopSource(
        2, 4, 20, footprint_per_tenant=64, think_mean=800.0, seed=3
    )
    frontend = build(
        source, shards=2, serve_config=ServeConfig(queue_capacity=2, batch_size=2)
    )
    report = run_checked(frontend, source)
    assert report.offered == 2 * 4 * 20
    assert source.exhausted


# ------------------------------------------------------ generated scenarios
@st.composite
def scenarios(draw):
    tenants = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        source = OpenLoopSource.synthetic(
            tenants, draw(st.integers(5, 150)),
            footprint_per_tenant=draw(st.sampled_from([8, 32, 128])),
            gap_mean=draw(st.sampled_from([60.0, 400.0, 2_500.0])),
            locality=draw(st.sampled_from([0.0, 0.5, 0.95])),
            deadline_cycles=draw(st.sampled_from([2_000, 30_000])),
            weights=draw(st.sampled_from([None, list(range(1, tenants + 1))])),
            seed=seed,
        )
    else:
        source = ClosedLoopSource(
            tenants, draw(st.integers(1, 4)), draw(st.integers(1, 30)),
            footprint_per_tenant=draw(st.sampled_from([8, 64])),
            think_mean=draw(st.sampled_from([50.0, 1_500.0])),
            deadline_cycles=draw(st.sampled_from([2_000, 30_000])),
            seed=seed,
        )
    serve_config = ServeConfig(
        batch_size=draw(st.sampled_from([1, 2, 8, 64])),
        queue_capacity=draw(st.sampled_from([1, 4, 64])),
        max_backlog=draw(st.sampled_from([0, 5, 512])),
        coalesce=draw(st.booleans()),
        stash_shed_fraction=draw(st.sampled_from([0.0, 0.02, 0.9])),
    )
    scheme = draw(st.sampled_from(["dyn", "stat", "oram"]))
    shards = draw(st.sampled_from([1, 2, 4]))
    health = draw(st.sampled_from(["none", "default", "jumpy"]))
    policy = {
        "none": None,
        "default": HealthPolicy(),
        # trips, recovers, re-trips: quotas keep moving during the run
        "jumpy": HealthPolicy(
            window=4, degrade_latency_cycles=1_400, stash_pressure_fraction=0.02,
            quarantine_cooldown=3, probe_batch=4, probe_successes=2,
        ),
    }[health]
    frontend = build(
        source, shards=shards, scheme=scheme,
        config=tight_oram() if draw(st.booleans()) else None,
        serve_config=serve_config, health_policy=policy,
    )
    if policy is not None:
        for shard in range(shards):
            start = draw(st.sampled_from(["healthy", "healthy", "quarantined", "degraded"]))
            if start == "quarantined":
                frontend.bank.quarantine_shard(shard)
            elif start == "degraded":
                frontend.health.record_pressure(shard)
    return frontend, source


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_incremental_state_matches_scans(scenario):
    frontend, source = scenario
    run_checked(frontend, source)


# ------------------------------------------------- event cost, in call counts
def serve_calls_per_request(batch_size):
    """Python + C calls made from ``repro/serve`` code per offered request,
    over one fixed 2,000-request overload run (1 shard, arrivals ~10x faster
    than it serves, so queues and the open batch stay full)."""
    import os
    import sys

    source = OpenLoopSource.synthetic(
        4, 500, footprint_per_tenant=512, gap_mean=400.0, seed=13
    )
    frontend = ServingFrontEnd.build(
        "dyn", source.footprint_blocks, SystemConfig(), 1,
        serve_config=ServeConfig(batch_size=batch_size),
    )
    marker = os.path.join("repro", "serve") + os.sep
    calls = 0

    def hook(frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call") and marker in frame.f_code.co_filename:
            calls += 1

    sys.setprofile(hook)
    try:
        report = frontend.run(source)
    finally:
        sys.setprofile(None)
    assert report.offered == 2_000 and report.shed > 0
    return calls / report.offered


def test_event_cost_does_not_grow_with_the_open_batch():
    """An event is O(1) in front-end work: a 16x larger batch quota (a 16x
    larger open batch under overload) must not change the calls a request
    costs.  With per-arrival scans over the open batch it tripled."""
    small = serve_calls_per_request(4)
    large = serve_calls_per_request(64)
    assert abs(large - small) / small < 0.15, (small, large)


def test_the_only_registry_frames_of_a_served_request_are_histogram_records():
    """Counting is a bare-attribute increment where the event happens, so a
    run of the ``open4_dyn_health`` golden scenario enters
    ``observability/metrics.py`` for one thing only: ``CycleHistogram.record``
    (a distribution is state, not derivable afterwards).  With
    the live-registry mirror ``Counter.inc`` fired per event here too, and
    the health plane's ``_sync`` per access."""
    import os
    import sys
    from collections import Counter

    from tests.test_serve_golden import open4_dyn_health

    frontend, source = open4_dyn_health()
    marker = os.path.join("observability", "metrics.py")
    frames = Counter()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.endswith(marker):
                frames[code.co_name] += 1
            elif code.co_name == "_sync":
                frames["_sync"] += 1

    sys.setprofile(hook)
    try:
        report = frontend.run(source)
    finally:
        sys.setprofile(None)
    assert report.served > 0 and report.batches > 0
    tenants = source.num_tenants
    assert frames == {
        # latency + tenant latency per served request, queue wait per request
        # that waited for an issue (an MSHR-latched one did not), one
        # occupancy sample per batch
        "record": 2 * report.served
        + frontend.queue_wait_cycles.total
        + report.batches,
        # per run, not per request: the tenant histograms made at the start,
        # the report's p50/p99 (whole run + each tenant) read at the end
        "__init__": tenants,
        "quantile": 2 + 2 * tenants,
    }


def test_a_served_request_enters_only_event_handler_frames():
    """One frame per serving event: a run of the ``open4_dyn_health`` golden
    scenario enters ``repro/serve`` and ``controller/sharded.py`` code only
    in the event handlers and the spec's span boundaries.  Per request:
    ``_admit`` and ``TenantQueues.push``; per access: ``_Access``, the issue,
    the bank's ``demand_access`` + health step, the completion; per batch:
    ``_issue_batch``; per event-loop round: one arrival peek and one
    ``_pump``, and ``take_arrivals`` only at a cycle with arrivals due.  A
    fair pick never scans all-empty queues, and ``_placeable`` judges heads
    only while some shard's batch is full.  No memo, placement, close-scan,
    interleave, stash-fraction, address-translation, quota or breaker-state
    helper frames (comprehension frames are left out: 3.12 inlines them)."""
    import os
    import sys
    from collections import Counter

    from tests.test_serve_golden import open4_dyn_health

    frontend, source = open4_dyn_health()
    arrival_cycles = len({arrival[0] for arrival in source._arrivals})
    serve = os.path.join("repro", "serve") + os.sep
    sharded = os.path.join("repro", "controller", "sharded.py")
    frames = Counter()
    empty_scans = 0
    judged_with_room = 0

    def hook(frame, event, _arg):
        nonlocal empty_scans, judged_with_room
        if event != "call":
            return
        code = frame.f_code
        path = code.co_filename
        if code.co_name.startswith("<") or not (
            serve in path or path.endswith(sharded)
        ):
            return
        module = os.path.splitext(os.path.basename(path))[0]
        frames[f"{module}.{code.co_name}"] += 1
        if code.co_name == "pop_where" and not any(frame.f_locals["self"]._queues):
            empty_scans += 1
        if code.co_name == "_placeable" and all(
            len(batch) < quota
            for batch, quota in zip(frontend._open_batches, frontend._quotas)
        ):
            judged_with_room += 1

    sys.setprofile(hook)
    try:
        report = frontend.run(source)
    finally:
        sys.setprofile(None)
    assert report.served > 0 and report.batches > 0 and report.coalesced > 0
    issued = len(frontend.issued)
    assert empty_scans == 0 and judged_with_room == 0
    # per event-loop round and per pick: counted against each other
    rounds = frames.pop("frontend._pump")
    assert frames.pop("loadgen.next_arrival_cycle") == rounds + 1
    picks = frames.pop("queue.pop_where")
    assert report.admitted - report.rerouted <= picks
    judged = frames.pop("frontend._placeable")
    assert judged > 0
    # a bank key look-up only behind the memo of a judgement, a placement
    # or an issue
    assert 0 < frames.pop("sharded.coalesce_key") <= judged + picks + issued
    assert frames.pop("loadgen.exhausted") > 0
    expected = {
        # per run
        "frontend.run": 1,
        "frontend._serve_loop": 1,
        "frontend._quota": frontend.bank.num_shards,
        "frontend._finish": 1,
        "frontend.counters": 1,
        "queue.__init__": 1,
        "sharded.finalize": 1,
        "sharded.snapshot_shards": 1,
        # per arrival cycle / offered request
        "loadgen.take_arrivals": arrival_cycles,
        "frontend._admit": report.offered,
        "frontend._shed": report.shed,
        "queue.push": report.offered - report.rerouted - frontend.shed_pressure
        - frontend.shed_backlog,
        # per batch and per access
        "frontend._issue_batch": report.batches,
        "frontend.__init__": issued,
        "frontend._issue_one": issued,
        "frontend._complete": issued,
        "sharded.demand_access": issued,
        "sharded.health_access": issued,
    }
    assert dict(frames) == {name: count for name, count in expected.items() if count}
