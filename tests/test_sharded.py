"""Tests for the channel-interleaved sharded ORAM bank.

Covers the :class:`~repro.controller.sharded.ShardedORAMBank` acceptance
surface: builder guards, the bank protocol every backend answers (a lone
controller is a bank of one; ``num_shards=1`` builds exactly that), address
interleaving, deterministic batching, aggregate
statistics views, the merged ``fsck`` audit, fault injection through a
bank, and the divide-by-zero regression on aggregate posmap rates.
"""

import sys

import pytest

from repro.analysis.experiments import experiment_config
from repro.config import SystemConfig
from repro.controller.sharded import (
    ShardedORAMBank,
    build_bank,
    build_shard_backend,
)
from repro.faults import FaultConfig, FaultInjector, run_fsck_bank
from repro.health.breaker import HealthPolicy
from repro.memory.oram_backend import ORAMBackend
from repro.memory.periodic import PeriodicORAMBackend
from repro.parallel.merge import merge_shard_snapshots
from repro.sim.multicore import MultiCoreSystem
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace

FOOTPRINT = 512


def build_sharded(num_shards=4, scheme="dyn", **kwargs):
    return SecureSystem.build(
        scheme, footprint_blocks=FOOTPRINT, num_shards=num_shards, **kwargs
    )


def short_trace(accesses=3000, locality=0.8):
    return locality_mix_trace(
        locality, footprint_blocks=FOOTPRINT, accesses=accesses
    )


class TestBuildGuards:
    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            build_sharded(num_shards=0)

    def test_dram_shards_rejected(self):
        with pytest.raises(ValueError, match="DRAM"):
            build_sharded(scheme="dram", num_shards=2)

    def test_periodic_shards_each_run_their_own_grid(self):
        bank = build_sharded(scheme="dyn_intvl", num_shards=2).backend
        assert isinstance(bank, ShardedORAMBank)
        first, second = bank.shards
        assert isinstance(first, PeriodicORAMBackend)
        assert isinstance(second, PeriodicORAMBackend)
        period = first._period
        # A demand on shard 1 moves shard 1's cursor only.
        bank.demand_access(1, 0, False)
        assert first._next_slot == 0
        assert second._next_slot > 0 and second._next_slot % period == 0

    def test_explicit_policy_shards_rejected(self):
        from repro.core.thresholds import AdaptiveThresholdPolicy

        with pytest.raises(ValueError, match="threshold policy"):
            build_bank("dyn", FOOTPRINT, SystemConfig(), 2, policy=AdaptiveThresholdPolicy())
        with pytest.raises(ValueError, match="threshold policy"):
            build_sharded(num_shards=2, policy=AdaptiveThresholdPolicy())

    def test_one_shard_builds_plain_controller(self):
        system = build_sharded(num_shards=1)
        assert isinstance(system.backend, ORAMBackend)
        assert not isinstance(system.backend, ShardedORAMBank)

    def test_multi_shard_builds_bank(self):
        system = build_sharded(num_shards=4)
        assert isinstance(system.backend, ShardedORAMBank)
        assert system.backend.num_shards == 4


# What collect_system exports, by how many controllers sit behind the LLC.
CORE_KEYS = {
    f"cache.{name}"
    for name in (
        "l1_hits", "l1_misses", "llc_hits", "llc_misses", "llc_evictions",
        "llc_tag_probes",
    )
} | {
    f"backend.{name}"
    for name in (
        "demand_requests", "write_accesses", "posmap_accesses",
        "dummy_accesses", "memory_accesses",
    )
}
CONTROLLER_KEYS = (
    {
        f"oram.{name}"
        for name in (
            "stash_max_occupancy", "stash_soft_overflows",
            "real_path_accesses", "dummy_path_accesses",
        )
    }
    | {
        f"pipeline.phase_{name}_cycles"
        for name in ("posmap", "path_read", "remap", "writeback", "fault")
    }
    | {
        f"scheme.{name}"
        for name in (
            "merges", "breaks", "prefetched_blocks", "prefetch_hits",
            "prefetch_misses",
        )
    }
)
INTERCONNECT_KEYS = (
    "path_cycles", "streamed_paths", "untracked_paths", "treetop_hits",
    "treetop_bytes_saved",
)


def one_shard_bank_system():
    """A bank assembled at width 1 (what the serve/replay routes build)."""
    config = SystemConfig()
    return SecureSystem(config, build_bank("dyn", FOOTPRINT, config, 1), label="dyn")


class TestBankProtocol:
    """Every backend says how many controllers it holds; nobody asks what
    kind of object it is."""

    @pytest.mark.parametrize(
        "build, backend_type, width, bank_width",
        [
            (lambda: build_sharded(1, "dram"), None, 0, None),
            (lambda: build_sharded(1, "dyn"), ORAMBackend, 1, None),
            (lambda: build_sharded(1, "dyn_intvl"), PeriodicORAMBackend, 1, None),
            (lambda: SecureSystem.build("dyn", FOOTPRINT), ORAMBackend, 1, None),
            (lambda: build_sharded(4), ShardedORAMBank, 4, 4),
            (one_shard_bank_system, ShardedORAMBank, 1, 1),
        ],
        ids=["dram", "dyn-shards1", "dyn_intvl", "dyn", "shards4", "bank-of-1"],
    )
    def test_protocol(self, build, backend_type, width, bank_width):
        system = build()
        backend = system.backend
        if backend_type is not None:
            assert type(backend) is backend_type
        shards = tuple(backend.shards)
        assert len(shards) == width
        assert backend.bank_width == bank_width
        if bank_width is None and width:
            assert shards == (backend,)  # a lone controller is never wrapped
        assert all(isinstance(shard, ORAMBackend) for shard in shards)
        if width:
            assert backend.num_blocks == width * min(
                shard.oram.position_map.num_blocks for shard in shards
            )
        else:
            assert backend.num_blocks > 1 << 40

        result = system.run(short_trace(accesses=600))
        assert backend.snapshot_shards() == [shard.counters() for shard in shards]
        assert result.extra.get("num_shards") == bank_width

        expected = set(CORE_KEYS)
        if width:
            expected |= CONTROLLER_KEYS
        for index in range(width):
            prefix = (
                "interconnect" if bank_width is None
                else f"interconnect.shard{index}"
            )
            expected |= {f"{prefix}.{name}" for name in INTERCONNECT_KEYS}
        if bank_width is not None:
            expected.add("bank.num_shards")
        assert {instrument.name for instrument in system.metrics()} == expected


class TestOneShardEquivalence:
    def test_num_shards_1_bit_identical_to_default_build(self):
        trace = short_trace()
        baseline = SecureSystem.build("dyn", footprint_blocks=FOOTPRINT).run(trace)
        explicit = build_sharded(num_shards=1).run(trace)
        assert explicit.cycles == baseline.cycles
        assert explicit.total_memory_accesses == baseline.total_memory_accesses
        assert explicit.demand_requests == baseline.demand_requests
        assert explicit.dummy_accesses == baseline.dummy_accesses


class TestBankOfOne:
    """A bank of one pays no translation: with one shard the interleave is
    the identity, so the bank hands back the shard's own answer and builds
    no global-fill list; with no health plane its entry points are the
    shard's, bound at construction."""

    @staticmethod
    def recorded_bank(health_policy):
        """A width-1 bank over a shard whose answers are recorded."""
        shard = build_shard_backend("dyn", FOOTPRINT, SystemConfig(), 0, 1)
        answers = []
        for name in ("demand_access", "prefetch_access"):
            entry = getattr(shard, name)

            def recording(*args, _entry=entry):
                answers.append(answer := _entry(*args))
                return answer

            setattr(shard, name, recording)
        return ShardedORAMBank([shard], health_policy), answers

    @pytest.mark.parametrize("health", [False, True], ids=["bare", "health"])
    def test_answers_are_the_shards(self, health):
        bank, answers = self.recorded_bank(HealthPolicy() if health else None)
        if not health:
            assert bank.demand_access is bank.shards[0].demand_access
            assert bank.prefetch_access is bank.shards[0].prefetch_access
        comprehensions = []

        def hook(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == sharded_file:
                comprehensions.append(frame.f_code.co_name)

        sharded_file = ShardedORAMBank.demand_access.__code__.co_filename
        now = 0
        bank_answers = []
        for step in range(200):
            addr = step * 37 % bank.num_blocks
            sys.setprofile(hook)
            try:
                answer = bank.demand_access(addr, now, step % 3 == 0)
                prefetched = bank.prefetch_access((addr + 1) % bank.num_blocks, now)
            finally:
                sys.setprofile(None)
            bank_answers += [answer, prefetched]
            now = answer[0]
        assert "<listcomp>" not in comprehensions
        assert bank_answers == answers
        assert any(answer is not None for answer in answers[1::2])
        assert all(
            mine is None or mine[1] is theirs[1]
            for mine, theirs in zip(bank_answers, answers)
        )


class TestShardedRuns:
    def test_four_shard_smoke(self):
        trace = short_trace()
        result = build_sharded(num_shards=4).run(trace)
        assert result.extra["num_shards"] == 4
        assert result.cycles > 0
        assert result.demand_requests > 0

    def test_sharded_run_deterministic(self):
        trace = short_trace()

        def one_run():
            result = build_sharded(num_shards=4).run(trace)
            return result.cycles, result.total_memory_accesses, dict(result.extra)

        assert one_run() == one_run()

    def test_work_spreads_over_every_shard(self):
        trace = short_trace()
        system = build_sharded(num_shards=4)
        system.run(trace)
        for shard in system.backend.shards:
            assert shard.stats.demand_requests > 0

    def test_bank_stays_consistent_after_run(self):
        system = build_sharded(num_shards=4)
        system.run(short_trace())
        report = run_fsck_bank(system.backend)
        assert report.ok, report.summary()
        assert report.expected_blocks == sum(
            shard.oram.position_map.num_blocks for shard in system.backend.shards
        )

    def test_four_shards_scale_simulated_throughput(self):
        """The bank's acceptance gate: >= 1.3x simulated throughput at 4
        shards on 4 cores chasing pointers through disjoint regions (80%
        sequential, 20% random -- every miss reaches the ORAM, the worst
        case for one shared channel).  The cycle counts are pinned so a
        simulated-cycle drift fails here with a number."""
        region, cores = 2_048, 4

        def pointer_chase(core):
            rng = DeterministicRng(10 + core)
            trace = Trace(f"hungry{core}", footprint_blocks=region * cores)
            pointer = 0
            for _ in range(1_000):
                if rng.random() < 0.8:
                    addr = core * region + pointer
                    pointer = (pointer + 1) % region
                else:
                    addr = core * region + rng.randint(0, region - 1)
                trace.append(rng.expovariate_int(120), addr)
            return trace

        traces = [pointer_chase(core) for core in range(cores)]
        cycles = {}
        for num_shards in (1, 2, 4):
            system = MultiCoreSystem.build(
                "dyn", traces, config=experiment_config(), num_shards=num_shards
            )
            cycles[num_shards] = max(r.cycles for r in system.run(traces))
            report = run_fsck_bank(system.backend)
            assert report.ok, report.summary()
        assert cycles == {1: 7_224_718, 2: 3_778_362, 4: 2_479_818}
        assert cycles[1] / cycles[4] >= 1.3  # measured 2.91x


class TestAddressInterleaving:
    def test_demand_fills_come_back_global(self):
        bank = build_sharded(num_shards=4).backend
        for addr in [0, 1, 2, 3, 17, 42, 255]:
            _, filled = bank.demand_access(addr, now=0, is_write=False)
            assert addr in filled
            # Every fill from this channel carries the channel's congruence
            # class: interleaving is addr % num_shards.
            assert all(a % bank.num_shards == addr % bank.num_shards for a in filled)

    def test_global_address_range(self):
        bank = build_sharded(num_shards=4).backend
        per_shard = min(
            shard.oram.position_map.num_blocks for shard in bank.shards
        )
        assert bank.num_blocks == 4 * per_shard


class TestBatchedAccess:
    REQUESTS = [(a, 0, False) for a in [5, 8, 1, 13, 2, 6, 10, 3]]

    def test_results_in_input_order(self):
        bank = build_sharded(num_shards=4).backend
        results = bank.access_batch(self.REQUESTS)
        assert len(results) == len(self.REQUESTS)
        for (addr, _, _), (_, fills) in zip(self.REQUESTS, results):
            assert addr in fills

    def test_batch_deterministic_across_fresh_banks(self):
        def one_batch():
            bank = build_sharded(num_shards=4).backend
            bank.access_batch(self.REQUESTS)
            stats = bank.stats
            return bank.busy_until, stats.memory_accesses, stats.demand_requests

        assert one_batch() == one_batch()


class TestAggregateViews:
    def test_stats_sum_over_shards(self):
        system = build_sharded(num_shards=4)
        system.run(short_trace())
        bank = system.backend
        assert bank.stats.demand_requests == sum(
            shard.stats.demand_requests for shard in bank.shards
        )
        assert bank.stats.memory_accesses == sum(
            shard.stats.memory_accesses for shard in bank.shards
        )

    def test_busy_until_is_worst_channel(self):
        system = build_sharded(num_shards=4)
        system.run(short_trace())
        bank = system.backend
        assert bank.busy_until == max(shard.busy_until for shard in bank.shards)

    def test_aggregate_views_not_assignable(self):
        bank = build_sharded(num_shards=2).backend
        with pytest.raises(AttributeError):
            bank.stats = None
        with pytest.raises(AttributeError):
            bank.busy_until = 0

    def test_phase_breakdown_sums_pipelines(self):
        system = build_sharded(num_shards=4)
        result = system.run(short_trace())
        for name in ("posmap", "path_read", "writeback"):
            assert result.extra[f"phase_{name}_cycles"] == sum(
                shard.pipeline.phase_cycles[name] for shard in system.backend.shards
            )
        assert result.extra["phase_path_read_cycles"] > 0


class TestPosmapRateRegression:
    """Divide-by-zero regressions: rates on untouched hierarchies are 0.0."""

    def test_fresh_hierarchy_rates_are_zero(self):
        backend = SecureSystem.build("dyn", footprint_blocks=FOOTPRINT).backend
        assert backend.posmap_hierarchy.hit_rate() == 0.0
        assert backend.stats.posmap_accesses == 0

    def test_fresh_bank_aggregate_rate_is_zero(self):
        """A bank that never saw a lookup folds to 0.0, not a
        ZeroDivisionError -- on the one fold every route shares."""
        bank = build_sharded(num_shards=4).backend
        folded = merge_shard_snapshots(
            bank.snapshot_shards(), [], workload="fresh", scheme="dyn"
        )
        assert folded.posmap_cache_hit_rate == 0.0
        empty_run = build_sharded(num_shards=4).run(Trace("empty", FOOTPRINT))
        assert empty_run.posmap_cache_hit_rate == 0.0

    def test_used_bank_rate_in_unit_interval(self):
        system = build_sharded(num_shards=4)
        result = system.run(short_trace())
        hierarchies = [shard.posmap_hierarchy for shard in system.backend.shards]
        assert 0.0 < result.posmap_cache_hit_rate <= 1.0
        assert result.posmap_cache_hit_rate == sum(
            h.cache_hits for h in hierarchies
        ) / sum(h.lookups for h in hierarchies)


class TestBankFsck:
    def test_tampered_shard_errors_are_prefixed(self):
        system = build_sharded(num_shards=4)
        system.run(short_trace(accesses=1500))
        bank = system.backend
        victim = bank.shards[2].oram
        # Drop one real block from the victim's tree: the census and
        # duplicate checks must flag it, attributed to shard 2 only.
        for index in range(victim.tree.num_buckets):
            bucket = victim.tree.bucket(index)
            if bucket:
                del bucket[0]
                break
        report = run_fsck_bank(bank)
        assert not report.ok
        assert all(error.startswith("shard 2:") for error in report.errors)


class TestShardedFaultInjection:
    def run_faulty(self):
        injector = FaultInjector(
            FaultConfig(seed=7, transient_rate=0.05, delay_rate=0.05, delay_cycles=90)
        )
        system = build_sharded(num_shards=4, fault_injector=injector)
        result = system.run(short_trace(accesses=4000))
        return system, result

    def test_faults_counted_through_the_bank(self):
        system, faulty = self.run_faulty()
        clean = build_sharded(num_shards=4).run(short_trace(accesses=4000))
        assert faulty.extra["transient_faults"] > 0
        assert faulty.extra["fault_retries"] > 0
        assert faulty.extra["fault_delay_cycles"] > 0
        assert faulty.cycles > clean.cycles

    def test_bank_survives_faults_consistent(self):
        system, _ = self.run_faulty()
        report = run_fsck_bank(system.backend)
        assert report.ok, report.summary()

    def test_faulty_sharded_run_deterministic(self):
        def one_run():
            _, result = self.run_faulty()
            return result.cycles, dict(result.extra)

        assert one_run() == one_run()
