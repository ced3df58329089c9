"""Tests for the deadline-aware request-serving front end."""

from operator import itemgetter

import pytest

from repro.analysis.experiments import experiment_config
from repro.config import ServeConfig, SystemConfig
from repro.health import HealthPolicy
from repro.observability import collect_serve
from repro.parallel.merge import requests_from_trace, run_serial_reference
from repro.serve import (
    ClosedLoopSource,
    OpenLoopSource,
    Request,
    ServingFrontEnd,
    TenantQueues,
)
from repro.workloads.synthetic import locality_mix_trace


def make_source(entries, num_tenants=1, weights=None, deadline=30_000):
    """Hand-crafted arrival schedule: (cycle, tenant, addr, is_write),
    offered in a stable sort by cycle."""
    return OpenLoopSource(
        num_tenants, weights, sorted(entries, key=itemgetter(0)),
        deadline_cycles=deadline,
    )


def build_frontend(scheme="dyn", footprint=64, shards=1, serve_config=None,
                   health_policy=None, workload="t"):
    return ServingFrontEnd.build(
        scheme,
        footprint,
        SystemConfig(),
        shards,
        serve_config=serve_config,
        health_policy=health_policy,
        workload=workload,
    )


class TestTenantQueues:
    def test_push_bounded(self):
        queues = TenantQueues([1], capacity=2)
        reqs = [Request(i, 0, 0, False, 0, 10) for i in range(3)]
        assert queues.push(reqs[0]) and queues.push(reqs[1])
        assert not queues.push(reqs[2])
        assert queues.depth(0) == 2
        assert queues.peak_depth[0] == 2

    def test_weighted_fair_share(self):
        queues = TenantQueues([3, 1], capacity=128)
        for i in range(40):
            queues.push(Request(2 * i, 0, 0, False, 0, 10))
            queues.push(Request(2 * i + 1, 1, 0, False, 0, 10))
        served = [0, 0]
        for _ in range(40):
            popped = queues.pop_where()
            served[popped.tenant] += 1
        assert served == [30, 10]

    def test_eligibility_skips_blocked_head(self):
        queues = TenantQueues([1, 1], capacity=8)
        queues.push(Request(0, 0, 7, False, 0, 10))
        queues.push(Request(1, 1, 8, False, 0, 10))
        popped = queues.pop_where(lambda r: r.addr != 7)
        assert popped.tenant == 1
        assert queues.pop_where(lambda r: r.addr != 7) is None
        assert queues.depth(0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQueues([], capacity=4)
        with pytest.raises(ValueError):
            TenantQueues([0], capacity=4)
        with pytest.raises(ValueError):
            TenantQueues([1], capacity=0)


class TestLoadGenerators:
    def test_open_loop_deterministic(self):
        def schedule(seed):
            source = OpenLoopSource.synthetic(
                2, 50, footprint_per_tenant=128, seed=seed
            )
            return [
                (r.arrival_cycle, r.tenant, r.addr, r.is_write)
                for r in source.take_arrivals(10**9)
            ]

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_open_loop_tenant_regions_disjoint(self):
        source = OpenLoopSource.synthetic(3, 40, footprint_per_tenant=100)
        for request in source.take_arrivals(10**9):
            region = request.addr // 100
            assert region == request.tenant

    def test_footprint_survives_draining(self):
        source = OpenLoopSource.synthetic(2, 20, footprint_per_tenant=64)
        before = source.footprint_blocks
        source.take_arrivals(10**9)
        assert source.footprint_blocks == before > 64

    def test_from_trace_matches_requests_from_trace(self):
        trace = locality_mix_trace(0.5, footprint_blocks=64, accesses=40)
        source = OpenLoopSource.from_trace(trace)
        got = [
            (r.addr, r.arrival_cycle, r.is_write)
            for r in source.take_arrivals(10**9)
        ]
        assert got == requests_from_trace(trace)

    def test_closed_loop_completion_feedback(self):
        source = ClosedLoopSource(
            1, 2, 3, footprint_per_tenant=32, think_mean=10.0, seed=1
        )
        first = source.take_arrivals(10**9)
        assert len(first) == 2  # one outstanding request per client
        assert not source.exhausted
        arrivals = len(first)
        pending = list(first)
        while pending:
            request = pending.pop(0)
            source.on_completion(request, request.arrival_cycle + 100)
            fresh = source.take_arrivals(10**12)
            arrivals += len(fresh)
            pending.extend(fresh)
        assert source.exhausted
        assert arrivals == 2 * 3

    def test_shed_feedback_advances_client(self):
        source = ClosedLoopSource(
            1, 1, 2, footprint_per_tenant=32, think_mean=10.0, seed=2
        )
        first = source.take_arrivals(10**9)[0]
        source.on_shed(first, 50)
        assert source.next_arrival_cycle() is not None
        assert not source.exhausted


class TestCoalescing:
    """1-shard 'stat' bank with static super-block pairs (2k, 2k+1)."""

    def run_entries(self, entries, **config_kwargs):
        serve_config = ServeConfig(**config_kwargs)
        frontend = build_frontend(scheme="stat", serve_config=serve_config)
        report = frontend.run(make_source(entries, deadline=50_000))
        return frontend, report

    def test_concurrent_same_block_reads_dedupe(self):
        frontend, report = self.run_entries(
            [(0, 0, 4, False), (0, 0, 4, False)], batch_size=8
        )
        assert len(frontend.issued) == 1
        assert report.served == 2
        assert report.coalesced == 1

    def test_concurrent_super_block_mates_dedupe(self):
        frontend, report = self.run_entries(
            [(0, 0, 4, False), (0, 0, 5, False)], batch_size=8
        )
        assert len(frontend.issued) == 1
        assert report.served == 2
        assert report.coalesced == 1
        served = [r for r in frontend.all_requests]
        assert served[0].completion_cycle == served[1].completion_cycle

    def test_concurrent_read_write_coalesce_to_write_access(self):
        frontend, report = self.run_entries(
            [(0, 0, 4, False), (0, 0, 5, True)], batch_size=8
        )
        assert len(frontend.issued) == 1
        assert frontend.issued[0][2] is True  # write wins the merged access
        assert report.served == 2
        assert report.sim.demand_requests == 1  # one path access for both

    def test_read_after_completion_is_a_fresh_access(self):
        frontend, report = self.run_entries(
            [(0, 0, 4, False), (100_000, 0, 4, False)], batch_size=1
        )
        # the second read arrives long after the first access completed:
        # nothing is pending to ride, so it pays its own path access.
        assert len(frontend.issued) == 2
        assert report.coalesced == 0
        assert report.served == 2

    def test_write_never_latches_onto_inflight_access(self):
        frontend, report = self.run_entries(
            [(0, 0, 4, False), (1, 0, 4, True)], batch_size=1
        )
        assert len(frontend.issued) == 2
        assert report.coalesced == 0
        assert report.served == 2

    def test_no_coalesce_config(self):
        frontend, report = self.run_entries(
            [(0, 0, 4, False), (0, 0, 4, False)], batch_size=8, coalesce=False
        )
        assert len(frontend.issued) == 2
        assert report.coalesced == 0


class TestInflightRead:
    def test_read_rides_pending_access(self):
        # Distinct from TestCoalescing.test_read_latches...: assert the
        # exact single-access outcome with the second arrival strictly
        # inside the first access's flight window.
        serve_config = ServeConfig(batch_size=1)
        frontend = build_frontend(scheme="stat", serve_config=serve_config)
        report = frontend.run(
            make_source(
                [(0, 0, 4, False), (10, 0, 4, False)], deadline=50_000
            )
        )
        assert len(frontend.issued) == 1
        assert report.coalesced == 1
        assert report.served == 2


class TestDeterminism:
    def test_open_loop_bit_identical(self):
        def run():
            source = OpenLoopSource.synthetic(
                3, 60, footprint_per_tenant=128, gap_mean=400.0,
                weights=[3, 2, 1], seed=9,
            )
            frontend = build_frontend(
                footprint=source.footprint_blocks, shards=4
            )
            return frontend.run(source).as_dict()

        assert run() == run()

    def test_closed_loop_bit_identical(self):
        def run():
            source = ClosedLoopSource(
                2, 3, 6, footprint_per_tenant=64, think_mean=2_000.0, seed=4
            )
            frontend = build_frontend(
                footprint=source.footprint_blocks, shards=2
            )
            return frontend.run(source).as_dict()

        assert run() == run()


class TestBypassIdentity:
    """The front end only schedules: its issued accesses, replayed through
    the raw bank, give its SimResult back (every policy on)."""

    def test_enabled_schedule_replays_bit_identically(self):
        config = experiment_config()
        trace = locality_mix_trace(0.6, footprint_blocks=512, accesses=300)
        for shards in (1, 2, 4):
            frontend = ServingFrontEnd.build(
                "dyn", trace.footprint_blocks, config, shards, workload="par"
            )
            report = frontend.run(OpenLoopSource.from_trace(trace, num_tenants=2))
            assert report.served and report.batches
            replayed = run_serial_reference(
                "dyn", trace.footprint_blocks, frontend.issued, config, shards,
                workload="par",
            )
            assert report.sim == replayed, f"{shards}-shard replay differs"


class TestBackpressure:
    def overload_run(self, weights=None):
        source = OpenLoopSource.synthetic(
            2, 150, footprint_per_tenant=256, gap_mean=100.0,
            weights=weights, seed=21,
        )
        serve_config = ServeConfig(queue_capacity=16, max_backlog=48)
        frontend = build_frontend(
            footprint=source.footprint_blocks, shards=1,
            serve_config=serve_config,
        )
        return frontend, frontend.run(source)

    def test_overload_sheds_and_conserves_requests(self):
        frontend, report = self.overload_run()
        assert report.shed > 0
        assert report.served + report.shed == report.offered == 300
        assert all(
            peak <= 16 for peak in frontend.queues.peak_depth
        )

    def test_weighted_fairness_under_overload(self):
        _, report = self.overload_run(weights=[3, 1])
        heavy, light = report.tenants
        assert heavy.served > light.served

    def test_deadline_close_bounds_batch_wait(self):
        # Light load, huge quota: batches can only ever close by deadline
        # (or final drain), never by filling.
        source = OpenLoopSource.synthetic(
            1, 30, footprint_per_tenant=128, gap_mean=3_000.0,
            deadline_cycles=8_000, seed=3,
        )
        serve_config = ServeConfig(batch_size=64)
        frontend = build_frontend(
            footprint=source.footprint_blocks, serve_config=serve_config
        )
        report = frontend.run(source)
        assert report.full_closes == 0
        assert report.deadline_closes > 0
        assert report.served == 30
        # No request sits in an open batch past half its 8,000-cycle budget
        # -- unless the shard was still busy then, in which case its batch
        # issues the cycle the previous one completes.
        issue_of = dict(
            zip(frontend.access_completions, (c for _, c, _ in frontend.issued))
        )
        waits = []
        for request in frontend.all_requests:
            issue = issue_of[request.completion_cycle]
            waits.append(issue - request.arrival_cycle)
            assert waits[-1] <= 4_000 or issue in issue_of
        assert max(waits) >= 4_000  # the bound is what closed the batches

    def test_drain_close_flushes_trailing_partial_batch(self):
        entries = [(0, 0, addr, False) for addr in range(3)]
        serve_config = ServeConfig(batch_size=64)
        frontend = build_frontend(serve_config=serve_config)
        report = frontend.run(make_source(entries, deadline=10**6))
        assert report.drain_closes == 1
        assert report.served == 3
        # flushed immediately: nobody waited for the distant deadline close
        assert report.makespan_cycles < 10**5

    def test_four_shards_absorb_the_load_one_shard_sheds(self):
        """The serving tier's acceptance gates: the same open-loop load (4
        tenants x 300 requests, mean gap 3,300 cycles) saturates one shard
        -- admission control sheds, latency balloons -- while four shards
        serve all of it: >= 2.0x served requests per kilocycle, p99
        admission->completion <= 65,536 cycles (the overload survives in
        the shed column, not the latency tail).  The cells are pinned so a
        simulated-cycle drift fails here with a number."""
        reports = {}
        for shards in (1, 4):
            source = OpenLoopSource.synthetic(
                4, 300, footprint_per_tenant=2_048, gap_mean=3_300.0,
                locality=0.6, seed=33,
            )
            frontend = ServingFrontEnd.build(
                "dyn", source.footprint_blocks, experiment_config(), shards,
                serve_config=ServeConfig(),
            )
            reports[shards] = frontend.run(source)
        one, four = reports[1], reports[4]
        assert (one.served, one.shed, one.makespan_cycles) == (729, 471, 1_528_248)
        assert (four.served, four.shed, four.makespan_cycles) == (1_200, 0, 1_042_664)
        assert four.p99_latency == 32_768
        assert four.p99_latency <= 65_536
        # 0.4770 -> 1.1509 served/kcycle = 2.41x
        assert four.served_per_kilocycle / one.served_per_kilocycle >= 2.0


class TestHealthIntegration:
    def test_quarantined_shard_reroutes_at_admission(self):
        source = OpenLoopSource.synthetic(
            2, 60, footprint_per_tenant=64, gap_mean=2_000.0, seed=6
        )
        frontend = build_frontend(
            footprint=source.footprint_blocks, shards=2,
            health_policy=HealthPolicy(),
        )
        frontend.bank.quarantine_shard(0)
        report = frontend.run(source)
        assert report.rerouted > 0
        assert report.served + report.shed == report.offered
        registry = collect_serve(frontend)
        assert registry.value("serve.fallback_issues") > 0

    def test_degraded_shard_gets_smaller_quota(self):
        frontend = build_frontend(shards=2, health_policy=HealthPolicy())
        assert frontend._quota(0) == ServeConfig().batch_size
        frontend.bank.health.record_pressure(0)
        assert frontend._quota(0) == ServeConfig().batch_size // 2
        assert frontend._quota(1) == ServeConfig().batch_size
        tiny = build_frontend(
            shards=2, serve_config=ServeConfig(batch_size=1),
            health_policy=HealthPolicy(),
        )
        tiny.bank.health.record_pressure(0)
        assert tiny._quota(0) == 1  # never starves a shard entirely


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(deadline_close_fraction=0.0)
        with pytest.raises(ValueError):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServeConfig(stash_shed_fraction=1.5)


class TestObservability:
    def test_collect_serve_forces_counter_set(self):
        source = OpenLoopSource.synthetic(1, 10, footprint_per_tenant=32)
        frontend = build_frontend(footprint=source.footprint_blocks)
        frontend.run(source)
        registry = collect_serve(frontend)
        for name in (
            "serve.offered", "serve.shed", "serve.shed_pressure",
            "serve.coalesced", "serve.rerouted", "serve.batches",
        ):
            assert registry.value(name) >= 0
        assert registry.value("serve.offered") == 10
        assert registry.value("bank.num_shards") == 1
        hist = registry.histogram("serve.latency_cycles")
        assert hist.total == 10

    def test_frontend_runs_once(self):
        source = OpenLoopSource.synthetic(1, 5, footprint_per_tenant=32)
        frontend = build_frontend(footprint=source.footprint_blocks)
        frontend.run(source)
        with pytest.raises(RuntimeError):
            frontend.run(source)
