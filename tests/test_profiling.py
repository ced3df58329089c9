"""Tests for host-side profiling: the registry's wall-clock ``Timer`` and
the ``repro run --profile`` report built on it (:func:`time_system`,
:func:`render_profile`)."""

from __future__ import annotations

import json

from repro.cli import main as cli_main
from repro.observability import MetricsRegistry, render_profile, time_system
from repro.sim.system import SecureSystem
from repro.workloads.synthetic import locality_mix_trace


def _small_trace():
    return locality_mix_trace(0.8, accesses=1500)


def _timed_run(scheme="dyn"):
    trace = _small_trace()
    system = SecureSystem.build(scheme, trace.footprint_blocks)
    registry = time_system(system)
    result = system.run(trace)
    return trace, system, registry, result


class TestPhaseTimer:
    def test_wrap_accumulates_calls_and_time(self):
        timer = MetricsRegistry().timer("host.work")
        wrapped = timer.wrap(lambda x: x * 2)
        assert wrapped(21) == 42
        assert wrapped(5) == 10
        assert timer.calls == 2
        assert timer.seconds >= 0.0

    def test_wrap_counts_raising_calls(self):
        timer = MetricsRegistry().timer("host.boom")

        def boom():
            raise RuntimeError("nope")

        wrapped = timer.wrap(boom)
        try:
            wrapped()
        except RuntimeError:
            pass
        assert timer.calls == 1


class TestProfiler:
    def test_profile_populated_after_run(self):
        trace, system, registry, _ = _timed_run()
        run = registry.timer("host.run")
        assert run.calls == 1 and run.seconds > 0.0
        # The demand path must have been exercised and timed.
        assert registry.timer("host.backend_demand").calls > 0
        assert registry.timer("host.cache_hierarchy").calls == len(trace)
        # Component counters sampled from the finished system.
        render_profile(system, registry, trace.name)
        assert registry.value("backend.demand_requests") > 0
        assert registry.value("cache.l1_misses") > 0
        assert "oram.stash_max_occupancy" in registry

    def test_profile_serializes_and_reports(self):
        trace, system, registry, _ = _timed_run()
        report = render_profile(system, registry, trace.name)
        assert f"profile: {system.label} on {trace.name}" in report
        assert "accesses/sec" in report
        assert "backend_demand" in report
        parsed = json.loads(json.dumps(registry.to_dict()))
        assert parsed["host.cache_hierarchy"]["calls"] == len(trace)
        assert parsed["host.run"]["kind"] == "timer"

    def test_profiling_does_not_change_simulated_outcome(self):
        """The shims must be observers only: bit-identical SimResult."""
        trace = _small_trace()
        bare_result = SecureSystem.build("dyn", trace.footprint_blocks).run(trace)
        _, _, _, timed_result = _timed_run()
        assert timed_result == bare_result

    def test_dram_backend_profiles_without_oram_counters(self):
        trace, system, registry, _ = _timed_run("dram")
        render_profile(system, registry, trace.name)
        assert "oram.stash_max_occupancy" not in registry
        assert "scheme.merges" not in registry
        assert registry.value("backend.demand_requests") > 0


class TestCliProfileFlag:
    def test_run_with_profile_flag(self, capsys):
        rc = cli_main(
            [
                "run",
                "-w",
                "locality:80",
                "-s",
                "dyn",
                "--accesses",
                "1500",
                "--warmup",
                "0",
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: dyn" in out
        assert "accesses/sec" in out

    def test_run_without_profile_flag_prints_no_profile(self, capsys):
        rc = cli_main(
            ["run", "-w", "locality:80", "-s", "dyn", "--accesses", "1500",
             "--warmup", "0"]
        )
        assert rc == 0
        assert "profile: dyn" not in capsys.readouterr().out
