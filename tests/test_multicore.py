"""Integration tests for the shared-memory multi-core simulator.

``MultiCoreSystem`` runs ``SecureSystem``'s one tile through the same
reference loop with N cores: ``TestOneCoreDifferential`` checks that one
core fed through the multi-core entry point is ``SecureSystem.run``, and
``TestCapturedMissStream`` pins the 4-core miss stream the parallel
benchmark replays.
"""

import dataclasses
import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import experiment_config
from repro.config import CacheConfig, ORAMConfig, SystemConfig
from repro.observability.recorder import InMemoryRecorder
from repro.sim.multicore import MultiCoreSystem
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng
from repro.workloads import named_trace

PERF = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"


def small_config():
    return SystemConfig(
        oram=ORAMConfig(levels=8, bucket_size=4, stash_blocks=50, utilization=0.5),
        l1=CacheConfig(capacity_bytes=2 * 1024, associativity=2),
        llc=CacheConfig(capacity_bytes=8 * 1024, associativity=8, hit_latency=8),
    )


def make_trace(name, footprint=512, n=800, gap=20, seed=1):
    rng = DeterministicRng(seed)
    trace = Trace(name, footprint_blocks=footprint)
    for _ in range(n):
        trace.append(gap, rng.randint(0, footprint - 1))
    return trace


class TestMultiCore:
    def test_single_core_works(self):
        system = MultiCoreSystem.build("oram", [make_trace("a")], config=small_config())
        results = system.run([make_trace("a")])
        assert len(results) == 1
        assert results[0].cycles > 0

    def test_core_count_validation(self):
        with pytest.raises(ValueError):
            MultiCoreSystem.build("oram", [], config=small_config()) if False else (
                MultiCoreSystem(small_config(), None, 0)
            )

    def test_trace_count_must_match(self):
        system = MultiCoreSystem.build(
            "oram", [make_trace("a"), make_trace("b", seed=2)], config=small_config()
        )
        with pytest.raises(ValueError):
            system.run([make_trace("a")])

    def test_contention_slows_cores_down(self):
        # Two memory-hungry cores sharing one serialized ORAM must each run
        # slower than a core owning the ORAM alone.
        alone_traces = [make_trace("w", gap=5, n=600)]
        alone = MultiCoreSystem.build("oram", alone_traces, config=small_config())
        alone_result = alone.run([make_trace("w", gap=5, n=600)])[0]

        pair_traces = [
            make_trace("w", gap=5, n=600),
            make_trace("w2", gap=5, n=600, seed=3),
        ]
        shared = MultiCoreSystem.build("oram", pair_traces, config=small_config())
        shared_results = shared.run(
            [make_trace("w", gap=5, n=600), make_trace("w2", gap=5, n=600, seed=3)]
        )
        assert all(r.cycles > alone_result.cycles * 1.3 for r in shared_results)

    def test_functional_state_consistent_after_shared_run(self):
        traces = [make_trace("a", seed=4), make_trace("b", seed=5)]
        system = MultiCoreSystem.build("dyn", traces, config=small_config())
        system.run([make_trace("a", seed=4), make_trace("b", seed=5)])
        system.backend.oram.check_invariants()

    def test_shared_llc_lets_cores_reuse_each_others_lines(self):
        # Both cores walk the same small array: the second toucher should
        # mostly hit in the shared LLC.
        def seq_trace(name):
            trace = Trace(name, footprint_blocks=64)
            for sweep in range(6):
                for addr in range(64):
                    trace.append(10, addr)
            return trace

        system = MultiCoreSystem.build(
            "oram", [seq_trace("a"), seq_trace("b")], config=small_config()
        )
        results = system.run([seq_trace("a"), seq_trace("b")])
        total_misses = sum(r.llc_misses for r in results)
        # 64 distinct lines; everything beyond startup is a (shared) hit.
        assert total_misses < 150

    def test_super_blocks_work_across_cores(self):
        # Core 0 touches even blocks, core 1 the odd partners: pairs are
        # co-resident in the *shared* LLC, so PrORAM can merge them even
        # though no single core sees both halves.
        def even_trace():
            trace = Trace("even", footprint_blocks=512)
            for sweep in range(8):
                for addr in range(0, 512, 2):
                    trace.append(12, addr)
            return trace

        def odd_trace():
            trace = Trace("odd", footprint_blocks=512)
            for sweep in range(8):
                for addr in range(1, 512, 2):
                    trace.append(12, addr)
            return trace

        system = MultiCoreSystem.build(
            "dyn", [even_trace(), odd_trace()], config=small_config()
        )
        system.run([even_trace(), odd_trace()])
        assert system.backend.scheme.stats.merges > 0
        system.backend.oram.check_invariants()


    def test_prefetcher_labels_work_across_cores(self):
        # One core-side prefetcher trained on the merged miss stream: both
        # cores walk private sequential regions, so the stream prefetcher
        # fires, and its fills land in the shared LLC.
        def walk(name, base):
            trace = Trace(name, footprint_blocks=512)
            for addr in range(base, base + 256):
                trace.append(400, addr)
            return trace

        traces = [walk("low", 0), walk("high", 256)]
        system = MultiCoreSystem.build("dyn_pre", traces, config=small_config())
        results = system.run(traces)
        assert system.prefetcher is not None
        assert results[0].prefetch_requests > 0
        assert results[0].prefetch_requests == system.backend.stats.prefetch_requests
        assert sum(r.llc_hits for r in results) > 0  # prefetched lines got used
        system.backend.oram.check_invariants()

    def test_in_flight_prefetch_is_waited_for_on_any_core(self):
        # A line core 0's prefetch brought in is still in flight when core 1
        # hits it: core 1 waits for the fill -- once, so core 0 hitting the
        # same line later (still before the fill lands) does not wait again.
        config = small_config()
        llc_hit = config.l1.hit_latency + config.llc.hit_latency

        def replay(*cores):
            traces = []
            for name, refs in cores:
                trace = Trace(name, footprint_blocks=512)
                for gap, addr in refs:
                    trace.append(gap, addr)
                traces.append(trace)
            system = MultiCoreSystem.build("oram_pre", traces, config=config)
            prefetches, issue = [], system.backend.prefetch_access

            def spy(addr, now):
                result = issue(addr, now)
                prefetches.append((addr, now, result.completion_cycle))
                return result

            system.backend.prefetch_access = spy
            return system.run(traces), prefetches

        walk = [(10, 0), (10, 1), (10, 2)]  # trains the stream: prefetch 3, 4
        _, prefetches = replay(("walk", walk))
        addr, issued, landed = prefetches[0]
        assert addr == 3 and landed - issued > 3
        third = (landed - issued) // 3
        results, shared = replay(
            ("walk", walk + [(2 * third, 3)]), ("late", [(issued + third, 3)])
        )
        assert shared[0] == prefetches[0]
        assert results[1].llc_hits == 1
        assert results[1].cycles == landed + llc_hit
        assert results[0].llc_hits == 1
        assert results[0].cycles == issued + 2 * third + llc_hit

    def test_a_second_run_continues_from_the_first_runs_end(self):
        # Every core starts at the tile clock: 0 on a fresh tile, and where
        # the first run ended (its latest core) on a second run.
        config = small_config()

        def lines(name, base):
            trace = Trace(name, footprint_blocks=64)
            for addr in range(base, base + 8):
                trace.append(10, addr)
            return trace

        traces = [lines("a", 0), lines("b", 8)]
        system = MultiCoreSystem.build("oram", traces, config=config)
        first = system.run(traces)
        end = max(r.cycles for r in first)
        assert min(r.cycles for r in first) < end
        # Replayed, every reference hits its own core's L1.
        second = system.run(traces)
        assert [r.l1_hits for r in second] == [8, 8]
        assert [r.cycles for r in second] == [end + 8 * (10 + config.l1.hit_latency)] * 2

    def test_metrics_and_recorder_come_with_the_tile(self):
        traces = [make_trace("a", seed=4), make_trace("b", seed=5)]
        system = MultiCoreSystem.build("dyn", traces, config=small_config())
        recorder = system.attach_recorder(InMemoryRecorder())
        results = system.run(traces)
        assert len(list(recorder.spans())) == system.backend.pipeline.requests > 0
        exported = system.metrics().to_dict()
        assert exported["cache.l1_hits"]["value"] == sum(r.l1_hits for r in results)
        assert exported["cache.llc_misses"]["value"] == sum(r.llc_misses for r in results)


# ------------------------------------------------------- 1-core differential
WORKLOADS = ("locality:80", "ocean_c", "TPCC")
LABELS = [
    base + prefetcher + periodic
    for base in ("dram", "oram", "stat", "dyn")
    for prefetcher in ("", "_pre", "_spre", "_mpre")
    for periodic in (("",) if base == "dram" else ("", "_intvl"))
]


@functools.lru_cache(maxsize=None)
def workload_trace(workload, accesses=2_500):
    return named_trace(workload, accesses)


def comparable(result):
    fields = dataclasses.asdict(result)
    del fields["workload"], fields["scheme"]
    return fields


class TestOneCoreDifferential:
    """A 1-core ``MultiCoreSystem`` is ``SecureSystem.run``, field for field."""

    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_every_field_but_the_labels(self, workload, label):
        trace = workload_trace(workload)
        single = SecureSystem.build(label, trace.footprint_blocks, experiment_config())
        multi = MultiCoreSystem.build(label, [trace], experiment_config())
        assert comparable(multi.run([trace])[0]) == comparable(single.run(trace))

    def test_prefetcher_label_is_honoured(self):
        """``build`` used to drop the core-side prefetcher silently."""
        trace = workload_trace("locality:80", 8_000)
        for label, requests in (("oram_pre", 4_181), ("dram_pre", 2_086)):
            system = MultiCoreSystem.build(label, [trace], experiment_config())
            assert system.run([trace])[0].prefetch_requests == requests


# ------------------------------------------------------- captured miss stream
def load_perf_workloads(monkeypatch):
    """``benchmarks/perf/workloads.py`` as the benchmark driver imports it."""
    modules = {}
    for name in ("spec", "workloads"):
        location = importlib.util.spec_from_file_location(
            f"perf_{name}", PERF / f"{name}.py"
        )
        modules[name] = importlib.util.module_from_spec(location)
        monkeypatch.setitem(sys.modules, name, modules[name])  # `import spec`
        location.loader.exec_module(modules[name])
    return modules["workloads"]


class TestCapturedMissStream:
    @pytest.mark.parametrize("size", ["smoke", "full"])
    def test_parallel_durable_inputs_match_the_lock(self, monkeypatch, size):
        """The 4-core, 2-shard ``capture_miss_stream`` the benchmark replays
        is byte-identical to the one ``inputs.lock.json`` pinned."""
        workloads = load_perf_workloads(monkeypatch)
        lock = json.loads((PERF / "inputs.lock.json").read_text())
        workload = workloads.ParallelDurable(tmp_root="unused")
        inputs = workload.make_inputs(lock["seed"], smoke=size == "smoke")
        assert workload.input_digests(inputs) == lock[size][workload.name]
