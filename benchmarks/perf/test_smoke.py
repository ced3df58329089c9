"""Smoke test of the benchmark itself (not collected by tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.  It drives
``run.py --smoke`` (tiny sizes, one repeat) and checks the contract between
``spec.py``, ``BENCHMARK.json`` and what ``run.py`` actually emits.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ and this directory on sys.path)
import spec  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf_smoke")
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads((out / "result.json").read_text())
    result["_stdout"] = completed.stdout
    result["_spans"] = {
        name: (out / f"spans-{name}.jsonl").read_text().splitlines() for name in spec.ALL
    }
    return result


def test_benchmark_json_mirrors_spec(benchmark_json):
    assert benchmark_json["command"] == ["python3", "benchmarks/perf/run.py"]
    assert benchmark_json["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(spec.ALL)
    assert {w["name"]: w["why"] for w in benchmark_json["workloads"]} == spec.WORKLOADS
    assert benchmark_json["end_to_end"] == spec.driver_end_to_end()
    assert benchmark_json["per_layer"] == spec.driver_per_layer()
    assert benchmark_json["run_seconds"] == run.DEFAULT_SECONDS
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    names += [w["name"] for w in benchmark_json["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_every_declared_metric_is_emitted_for_its_workloads(smoke_result):
    assert set(smoke_result["workloads"]) == set(spec.ALL)
    for name, workload in smoke_result["workloads"].items():
        assert not workload["failures"], workload["failures"]
        expected = {m["name"] for m in spec.END_TO_END if name in m["workloads"]}
        assert set(workload["end_to_end"]) == expected
        assert workload["end_to_end"]["failed_frac"]["median"] == 0
        assert set(workload["per_layer"]) == {m["name"] for m in spec.per_layer_metrics()}
        for metric in spec.END_TO_END:
            assert f"{metric['name']}" in smoke_result["_stdout"]
    provenance = smoke_result["provenance"]
    for field in ("commit", "dirty", "python", "platform", "nproc", "loadavg_start",
                  "loadavg_end", "seed", "repeats", "gc_policy", "hash_seed_policy"):
        assert field in provenance


def test_every_boundary_fires_on_some_workload(smoke_result):
    fired = {name: 0 for name in spec.span_layers()}
    for workload in smoke_result["workloads"].values():
        for name, calls in workload["boundary_calls"].items():
            fired[name] += calls
    silent = [name for name, calls in fired.items() if calls == 0]
    assert not silent, f"boundaries that never fired: {silent}"
    oram_layers = ("oram", "oram.tree", "core", "controller.pipeline", "memory.interconnect")
    bypass = smoke_result["workloads"]["trace_dram_bypass"]["per_layer"]
    assert all(bypass[f"{layer}.calls"]["value"] == 0 for layer in oram_layers)


def test_span_files_hold_the_first_ops(smoke_result):
    for name, lines in smoke_result["_spans"].items():
        records = [json.loads(line) for line in lines]
        assert records, name
        assert all(record["op"] < 256 and record["self_s"] >= -1e-9 for record in records)
        assert {record["workload"] for record in records} == {name}


@pytest.mark.parametrize("workload", spec.ALL)
def test_driver_line_and_exact_metrics_repeat(workload, benchmark_json):
    records = [
        run.measure(workload, run.DEFAULT_SEED, 1.0, trace=False, smoke=True)
        for _ in range(2)
    ]
    line = json.loads(run.driver_line(records[0]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in benchmark_json["end_to_end"]]
    assert all(entry["value"] != 0 for entry in line["metrics"].values())
    exact = [m["name"] for m in spec.END_TO_END if m["exact"] and workload in m["workloads"]]
    for name in exact:
        if name in records[0]["metrics"]:
            assert records[0]["metrics"][name] == records[1]["metrics"][name], name
    assert records[0]["sim_digest"] == records[1]["sim_digest"]
    assert records[0]["inputs"] == records[1]["inputs"]


@pytest.mark.parametrize("workload", spec.ALL)
def test_traced_pass_nests_and_repeats(workload, benchmark_json, monkeypatch):
    tracers = []
    original = tracing.Tracer

    def keep(*args, **kwargs):
        tracers.append(original(*args, **kwargs))
        return tracers[-1]

    monkeypatch.setattr(tracing, "Tracer", keep)
    records = [
        run.measure(workload, run.DEFAULT_SEED, 1.0, trace=True, smoke=True)
        for _ in range(2)
    ]
    line = json.loads(run.driver_line(records[0]))
    assert list(line["metrics"]) == [m["name"] for m in benchmark_json["per_layer"]]
    for tracer in tracers:
        assert tracer.spans and not tracer.nesting_errors()
        assert min(tracer.self_times()) >= -1e-9
    for metric in spec.per_layer_metrics():
        name = metric["name"]
        if spec.layer_metric_is_exact(name):
            assert records[0]["metrics"].get(name, 0) == records[1]["metrics"].get(name, 0), name
    assert records[0]["metrics"]["trace.overhead_ratio"] > 0
