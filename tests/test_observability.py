"""Tests for the tracing & metrics subsystem (``repro.observability``).

Three layers are covered:

* unit: instruments, registry, recorders, JSONL round-trip, the
  windowed leaf-uniformity check;
* integration: spans emitted by real runs reconcile exactly with the
  pinned ``SimResult`` accounting (per-phase cycles, request counts,
  latency arithmetic), on single controllers, sharded banks, periodic
  backends, and fault-injected runs;
* non-perturbation: attaching a recorder must not change the simulated
  outcome, and the written JSONL must be a pure function of the seed.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import experiment_config
from repro.faults import FaultConfig, FaultInjector
from repro.observability import (
    CycleHistogram,
    InMemoryRecorder,
    JsonlTraceRecorder,
    MetricsRegistry,
    NullRecorder,
    Span,
    attach_recorder,
    read_jsonl_trace,
)
from repro.observability.collect import (
    collect_system,
    collect_trace,
    render_profile,
    time_system,
)
from repro.security.statistics import windowed_uniformity
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace


def build_and_run(scheme="dyn", accesses=1500, recorder=None, **build_kwargs):
    trace = locality_mix_trace(0.8, footprint_blocks=4096, accesses=accesses)
    system = SecureSystem.build(
        scheme, trace.footprint_blocks, experiment_config(), **build_kwargs
    )
    if recorder is not None:
        system.attach_recorder(recorder)
    result = system.run(trace)
    return system, result


# --------------------------------------------------------------------- metrics
class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(ValueError):
            counter.set(2)
        counter.set(9)
        assert registry.value("a.b") == 9

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.set(3.5)
        assert registry.value("g") == 3.5

    def test_histogram_buckets_and_quantiles(self):
        histogram = CycleHistogram("h")
        with pytest.raises(ValueError):
            histogram.record(-1)
        assert histogram.quantile(0.5) == 0  # empty
        for value in (0, 1, 2, 3, 1348, 1348):
            histogram.record(value)
        assert histogram.total == 6
        assert histogram.sum == 2702
        assert histogram.mean == pytest.approx(2702 / 6)
        # 0 and 1 share bucket 0; 2 is in bucket 1 (upper bound 2).
        assert histogram.counts[0] == 2
        assert histogram.counts[1] == 1
        assert histogram.quantile(1.0) == 2048  # 1348 rounds up to 2^11
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, 2]),
                # powers of two and their neighbours, past the saturating
                # top bucket (2**46 and up)
                st.builds(
                    lambda exponent, delta: max(0, (1 << exponent) + delta),
                    st.integers(0, 60),
                    st.integers(-1, 1),
                ),
                st.integers(0, 1 << 50),
            ),
            max_size=60,
        ),
        st.integers(0, 3),
        st.integers(0, 70),
    )
    def test_fold_equals_recording_each_sample(self, samples, key, shift):
        """A fold of the sorted samples -- alone, or one key's window of a
        list packed as ``(key << shift) + value`` -- leaves the buckets,
        total and sum that recording them one by one leaves."""
        recorded = CycleHistogram("h")
        for value in samples:
            recorded.record(value)
        folded = CycleHistogram("h")
        folded.fold(sorted(samples))
        assert (folded.counts, folded.total, folded.sum) == (
            recorded.counts, recorded.total, recorded.sum,
        )
        shift = max(shift, max(samples, default=0).bit_length())
        base = key << shift
        packed = sorted(
            [base + value for value in samples]
            + [((key + 1) << shift) + 5, base - 1]
        )
        windowed = CycleHistogram("h")
        windowed.fold(packed, 1, len(packed) - 1, base)
        assert (windowed.counts, windowed.total, windowed.sum) == (
            recorded.counts, recorded.total, recorded.sum,
        )

    def test_fold_refuses_a_negative_sample(self):
        histogram = CycleHistogram("h")
        with pytest.raises(ValueError):
            histogram.fold([-1, 0, 5])
        with pytest.raises(ValueError):
            histogram.fold([6, 7, 9], base=7)
        assert histogram.total == 0 and histogram.sum == 0
        histogram.fold([3, 4], 2, 2)  # an empty window adds nothing
        assert histogram.total == 0

    def test_merge_adds_every_sample(self):
        left, right, both = (CycleHistogram(name) for name in "lrb")
        for value in (0, 5, 1 << 47):
            left.record(value)
            both.record(value)
        for value in (2, 5):
            right.record(value)
            both.record(value)
        left.merge(right)
        assert (left.counts, left.total, left.sum) == (
            both.counts, both.total, both.sum,
        )

    def test_registry_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.timer("x")

    def test_timer_is_a_registry_instrument(self):
        registry = MetricsRegistry()
        timer = registry.timer("host.work")
        assert registry.timer("host.work") is timer
        assert timer.wrap(sorted)([2, 1]) == [1, 2]
        assert timer.calls == 1
        assert registry.value("host.work") == timer.seconds >= 0.0
        assert registry.to_dict()["host.work"] == {
            "kind": "timer", "calls": 1, "seconds": timer.seconds,
        }
        assert "1 calls" in registry.render()

    def test_registry_exports_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc(2)
        registry.gauge("a.first").set(1)
        registry.histogram("m.mid").record(100)
        exported = registry.to_dict()
        assert list(exported) == sorted(exported)
        assert exported["z.last"] == {"kind": "counter", "value": 2}
        assert exported["m.mid"]["total"] == 1
        rendered = registry.render("report")
        assert "report:" in rendered
        assert "[a]" in rendered and "[m]" in rendered and "[z]" in rendered
        # Same content twice serializes identically.
        assert json.dumps(exported, sort_keys=True) == json.dumps(
            registry.to_dict(), sort_keys=True
        )


# ------------------------------------------------------------------- recorders
class TestRecorders:
    def test_null_recorder_normalized_to_none(self):
        system, _ = build_and_run(accesses=0)
        backend = system.backend
        backend.set_recorder(NullRecorder())
        assert backend.recorder is None
        recorder = InMemoryRecorder()
        backend.set_recorder(recorder)
        assert backend.recorder is recorder
        backend.set_recorder(None)
        assert backend.recorder is None

    def test_attach_recorder_noop_on_dram(self):
        trace = locality_mix_trace(0.8, accesses=10)
        system = SecureSystem.build("dram", trace.footprint_blocks, experiment_config())
        recorder = InMemoryRecorder()
        assert attach_recorder(system.backend, recorder) is recorder
        system.run(trace)  # run() tolerates a backend with no recorder
        assert recorder.records == []

    def test_in_memory_queries(self):
        recorder = InMemoryRecorder()
        recorder.record_event("run_start", workload="w")
        recorder.record_span(
            {
                "seq": recorder.next_seq(),
                "kind": "demand",
                "addr": 7,
                "shard": 0,
                "start": 0,
                "end": 1348,
                "phases": {"posmap": 0, "path_read": 1348},
                "fault_delay": 0,
                "retries": 0,
                "evictions": 0,
                "posmap_extra": 0,
                "stash": 3,
                "merges": 1,
                "breaks": 0,
            }
        )
        assert recorder.span_count() == 1
        assert len(list(recorder.events())) == 1
        span = next(recorder.spans())
        assert isinstance(span, Span)
        assert span.latency == 1348
        assert span.merges == 1
        assert recorder.phase_totals() == {"posmap": 0, "path_read": 1348, "fault": 0}

    def test_jsonl_roundtrip_and_determinism(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            recorder = JsonlTraceRecorder(str(path))
            build_and_run(accesses=400, recorder=recorder)
            recorder.close()
            recorder.close()  # idempotent
        first, second = (path.read_bytes() for path in paths)
        assert first == second  # fixed seed -> byte-identical trace file
        records = read_jsonl_trace(str(paths[0]))
        assert records
        assert records[0]["event"] == "run_start"
        assert records[-1]["event"] == "run_end"
        assert any("event" not in record for record in records)


# ----------------------------------------------------------------- integration
class TestTracedRuns:
    def test_tracing_does_not_perturb_simulation(self):
        _, untraced = build_and_run(accesses=1500)
        _, traced = build_and_run(accesses=1500, recorder=InMemoryRecorder())
        assert dataclasses.asdict(untraced) == dataclasses.asdict(traced)

    def test_spans_reconcile_with_sim_result(self):
        recorder = InMemoryRecorder()
        system, result = build_and_run(accesses=1500, recorder=recorder)
        spans = list(recorder.spans())
        # One span per pipeline trip: demand misses + dirty write-backs.
        assert len(spans) == result.demand_requests + result.write_accesses
        kinds = {span.kind for span in spans}
        assert "demand" in kinds
        # Exact per-phase reconciliation against the pinned accounting.
        totals = recorder.phase_totals()
        for name in ("posmap", "path_read", "remap", "writeback", "fault"):
            assert totals[name] == result.extra[f"phase_{name}_cycles"]
        # Span-local arithmetic: latency decomposes into phases + faults.
        sequences = [span.seq for span in spans]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        for span in spans:
            assert span.end - span.start == sum(span.phases.values()) + span.fault_delay
            assert span.shard == 0
        assert sum(span.merges for span in spans) == result.merges
        assert sum(span.breaks for span in spans) == result.breaks
        events = list(recorder.events())
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        assert events[-1]["cycles"] == result.cycles

    def test_sharded_bank_shares_one_sequence(self):
        recorder = InMemoryRecorder()
        system, result = build_and_run(accesses=1200, recorder=recorder, num_shards=2)
        bank = system.backend
        assert bank.recorder is recorder
        spans = list(recorder.spans())
        assert spans
        assert {span.shard for span in spans} == {0, 1}
        for span in spans:
            # Global addresses: the channel interleave is recoverable.
            assert span.addr % bank.num_shards == span.shard
        sequences = [span.seq for span in spans]
        assert sequences == sorted(sequences)

    def test_periodic_backend_emits_grid_spans_and_dummy_events(self):
        recorder = InMemoryRecorder()
        system, _ = build_and_run("dyn_intvl", accesses=250, recorder=recorder)
        backend = system.backend
        period = backend.interconnect.path_cycles + backend.interval
        spans = list(recorder.spans())
        assert spans
        assert all(span.start % period == 0 for span in spans)
        dummies = [e for e in recorder.events() if e["event"] == "periodic_dummy"]
        assert dummies
        assert all(event["slot"] % period == 0 for event in dummies)

    def test_fault_delays_attributed_to_spans(self):
        recorder = InMemoryRecorder()
        injector = FaultInjector(FaultConfig(seed=3, delay_rate=0.3, delay_cycles=500))
        system, result = build_and_run(
            accesses=600, recorder=recorder, fault_injector=injector
        )
        spans = list(recorder.spans())
        delayed = sum(span.fault_delay for span in spans)
        assert delayed > 0
        assert delayed == result.extra["fault_delay_cycles"]


# ------------------------------------------------------------------ collection
class TestCollection:
    def test_collect_system_matches_run(self):
        system, result = build_and_run(accesses=800)
        registry = system.metrics()
        assert registry.value("backend.demand_requests") == result.demand_requests
        assert registry.value("cache.llc_misses") == result.llc_misses
        assert registry.value("scheme.merges") == result.merges
        assert (
            registry.value("pipeline.phase_path_read_cycles")
            == result.extra["phase_path_read_cycles"]
        )
        # Callers may pass their own registry to aggregate into.
        merged = collect_system(system, MetricsRegistry())
        assert merged.to_dict() == registry.to_dict()

    def test_profiler_counters_come_from_collector(self):
        """The --profile report adds host timers to the collector's
        counters and nothing else: one walk owns every counter name."""
        trace = locality_mix_trace(0.8, accesses=500)
        system = SecureSystem.build("dyn", trace.footprint_blocks, experiment_config())
        registry = time_system(system)
        system.run(trace)
        render_profile(system, registry, trace.name)
        profiled = registry.to_dict()
        timers = {name for name, entry in profiled.items() if entry["kind"] == "timer"}
        assert timers == {
            "host.run", "host.cache_hierarchy", "host.backend_demand",
            "host.backend_writeback", "host.backend_prefetch",
        }
        for name in timers:
            del profiled[name]
        assert profiled == collect_system(system).to_dict()

    def test_collect_trace_summarizes_spans(self):
        recorder = InMemoryRecorder()
        _, result = build_and_run(accesses=600, recorder=recorder)
        registry = collect_trace(recorder)
        assert registry.value("trace.spans.demand") == result.demand_requests
        assert registry.value("trace.events.run_start") == 1
        assert (
            registry.counter("trace.phase_path_read_cycles").value
            == result.extra["phase_path_read_cycles"]
        )
        latency = registry.histogram("trace.latency.demand")
        assert latency.total == result.demand_requests


# ------------------------------------------------------------------ uniformity
class TestLeafUniformityMonitor:
    """:func:`windowed_uniformity` over a leaf sequence."""

    def test_rejects_degenerate_leaf_space(self):
        with pytest.raises(ValueError):
            windowed_uniformity([], num_leaves=1)

    def test_uniform_stream_healthy(self):
        rng = DeterministicRng(2)
        leaves = [rng.randbelow(16) for _ in range(2048)]
        windows = windowed_uniformity(leaves, num_leaves=16, window=512)
        assert len(windows.checks) == 4
        assert windows.healthy
        assert "healthy" in windows.render()

    def test_skewed_window_flagged(self):
        windows = windowed_uniformity([0] * 512, num_leaves=16, window=512)
        assert not windows.healthy
        assert windows.flagged[0].p_value < windows.alpha
        assert "FLAGGED" in windows.render()

    def test_short_tail_flush_is_insufficient_not_fatal(self):
        windows = windowed_uniformity(range(5), num_leaves=64, window=4096)
        (check,) = windows.checks
        assert check.p_value == 1.0  # the statistics guard, not a crash
        assert windows.healthy
        assert windowed_uniformity([], num_leaves=64).checks == []  # nothing to test
