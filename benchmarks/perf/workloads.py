"""The five workloads: inputs from a seed, set-up, the measured call, checks.

Each workload exposes the same small surface to ``run.py``:

* ``make_inputs(seed, smoke)`` -- everything derived from the seed (traces,
  arrival schedule, captured request stream); the program under test only
  ever sees these generated inputs;
* ``build(inputs)`` -- construct (or spawn) a fresh system; together with
  ``make_inputs`` this is what ``setup_s`` times;
* ``run(state, inputs)`` -- the one measured call;
* ``check(...)`` -- output checks, always outside timed regions;
* ``sim_metrics(...)`` -- the exact simulated-cycle metrics of the run.

Sizes are cut from the issue's prototype (100k-access traces, 54k
requests) so that one driver invocation -- several set-ups, several timed
repeats, a counted pass and the checks -- stays near 20 s; the README
lists what was cut and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Dict, List, Tuple

import spec
from repro.analysis.experiments import experiment_config
from repro.config import ServeConfig
from repro.health import HealthPolicy
from repro.parallel import merge as parallel_merge
from repro.parallel.runtime import ParallelShardRuntime
from repro.serve import OpenLoopSource, ServingFrontEnd
from repro.sim.multicore import capture_miss_stream
from repro.sim.results import SimResult
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng
from repro.workloads import locality_mix_trace, tpcc_trace, ycsb_trace


def digest(value) -> str:
    """sha256 of a generated input (lists of int/bool tuples: repr is stable)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def sim_digest(result: SimResult) -> str:
    return digest(sorted(dataclasses.asdict(result).items()))


def quantile_exact(sorted_values: List[int], q: float) -> int:
    """Nearest-rank quantile: the smallest value with >= q of the samples at or below it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def oram_layer_metrics(result: SimResult, ops: int, backends: list) -> Dict[str, float]:
    """Sim-count extras of the ORAM-side layers, from a SimResult and (when
    the run happened in this process) the backends that produced it."""
    paths = result.memory_accesses + result.dummy_accesses
    requests = result.demand_requests + result.prefetch_requests + result.write_accesses
    phases = {
        name: result.extra.get(f"phase_{name}_cycles", 0)
        for name in ("posmap", "path_read", "writeback")
    }
    phase_total = sum(phases.values())
    resolved = result.prefetch_hits + result.prefetch_misses
    metrics = {
        # busy cycles are summed over a bank's shards; the fraction is per shard
        "memory.backend.busy_cycle_frac": (
            result.busy_cycles / (result.cycles * result.extra.get("num_shards", 1))
        ),
        "memory.backend.write_frac": result.write_accesses / requests if requests else 0.0,
        "oram.path_accesses_per_op": paths / ops,
        "oram.dummy_frac": result.dummy_accesses / paths if paths else 0.0,
        "oram.posmap_hit_frac": result.posmap_cache_hit_rate,
        "oram.stash_max": result.stash_max_occupancy,
        "core.merges": result.merges,
        "core.breaks": result.breaks,
        "core.prefetch_hit_frac": result.prefetch_hits / resolved if resolved else 0.0,
        "core.prefetched_per_miss": (
            result.prefetched_blocks / result.demand_requests
            if result.demand_requests
            else 0.0
        ),
    }
    for name, cycles in phases.items():
        metrics[f"controller.pipeline.{name}_cycles_frac"] = (
            cycles / phase_total if phase_total else 0.0
        )
    summaries = [backend.interconnect.summary() for backend in backends]
    if summaries:
        def total(key: str) -> int:
            return sum(summary.get(key, 0) for summary in summaries)

        streamed = total("streamed_paths")
        activations = total("row_hits") + total("row_misses")
        flat_cycles = sum(
            backend.interconnect.path_cycles * s["streamed_paths"]
            for backend, s in zip(backends, summaries)
            if "streamed_cycles" not in s
        )
        metrics["oram.tree.treetop_bytes_saved_per_op"] = total("treetop_bytes_saved") / ops
        metrics["memory.interconnect.mean_streamed_cycles"] = (
            (total("streamed_cycles") + flat_cycles) / streamed if streamed else 0.0
        )
        metrics["memory.interconnect.row_hit_frac"] = (
            total("row_hits") / activations if activations else 0.0
        )
        metrics["memory.interconnect.bank_wait_cycles_per_path"] = (
            total("bank_wait_cycles") / streamed if streamed else 0.0
        )
    if len(backends) > 1:
        busy = [backend.stats.busy_cycles for backend in backends]
        mean = sum(busy) / len(busy)
        metrics["controller.sharded.busy_imbalance"] = max(busy) / mean if mean else 0.0
    return metrics


class Workload:
    """Defaults shared by the five workloads (see the module docstring)."""

    def close(self, state) -> None:
        """Release what ``build`` acquired (processes, directories)."""

    def result(self, outcome) -> SimResult:
        """The SimResult inside what ``run`` returned."""
        return outcome

    def counted(self, inputs: dict, counter):
        """One more run on a fresh system, under the call counter."""
        state = self.build(inputs)
        try:
            with counter:
                return self.run(state, inputs)
        finally:
            self.close(state)

    def extras(self, inputs: dict, result: SimResult) -> Dict[str, float]:
        """Metrics that need further, untimed runs (traced mode only)."""
        return {}


# ------------------------------------------------------------ trace workloads
class TraceWorkload(Workload):
    """One trace replayed through one ``SecureSystem``."""

    op_boundary = "cache.access"

    def __init__(self, name: str, scheme: str):
        self.name = name
        self.scheme = scheme

    def trace(self, seed: int, smoke: bool) -> Trace:
        raise NotImplementedError

    def config(self):
        return experiment_config()

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        return {"trace": self.trace(seed, smoke)}

    def input_digests(self, inputs: dict) -> Dict[str, str]:
        return {"trace": digest(inputs["trace"].entries)}

    def ops(self, inputs: dict) -> int:
        return len(inputs["trace"])

    def build(self, inputs: dict, scheme: str = "") -> SecureSystem:
        return SecureSystem.build(
            scheme or self.scheme, inputs["trace"].footprint_blocks, self.config()
        )

    def run(self, system: SecureSystem, inputs: dict) -> SimResult:
        return system.run(inputs["trace"])

    def check(self, system, inputs, result) -> Tuple[List[str], int]:
        failures: List[str] = []
        ops = self.ops(inputs)
        if result.trace_entries != ops:
            failures.append(f"{result.trace_entries} entries replayed, {ops} offered")
        if result.l1_hits + result.llc_hits + result.llc_misses != ops:
            failures.append("cache outcomes do not add up to the trace length")
        if self.scheme != "dram":
            try:
                system.backend.oram.check_invariants()
            except AssertionError as error:
                failures.append(f"ORAM invariant: {error}")
        return failures, ops if failures else 0

    def sim_metrics(self, system, inputs, result) -> Dict[str, float]:
        return {"sim_cycles_per_op": result.cycles / self.ops(inputs)}

    def extras(self, inputs, result) -> Dict[str, float]:
        """cycles(oram) / cycles(this scheme) - 1 on the same trace and config."""
        if self.scheme == "dram":
            return {}
        baseline = self.run(self.build(inputs, scheme="oram"), inputs)
        return {"sim_gain_vs_oram": result.speedup_over(baseline)}

    def layer_metrics(self, system, inputs, result, host) -> Dict[str, float]:
        ops = self.ops(inputs)
        lookups = result.llc_hits + result.llc_misses
        metrics = {
            "cache.l1_hit_frac": result.l1_hits / ops,
            "cache.llc_hit_frac": result.llc_hits / lookups if lookups else 0.0,
            "cache.llc_evictions_per_op": system.hierarchy.llc.evictions / ops,
        }
        if self.scheme == "dram":
            requests = result.demand_requests + result.write_accesses
            metrics["memory.backend.busy_cycle_frac"] = result.busy_cycles / result.cycles
            metrics["memory.backend.write_frac"] = result.write_accesses / requests
        else:
            metrics.update(oram_layer_metrics(result, ops, [system.backend]))
        return metrics


class LocalRead(TraceWorkload):
    def trace(self, seed, smoke):
        # Footprints of 2x (1.25x in smoke) the 4,096-line LLC: a run this
        # short still reaches prefetch hits, breaks and background evictions.
        return locality_mix_trace(
            0.8,
            footprint_blocks=5_120 if smoke else 8_192,
            accesses=16_000 if smoke else 40_000,
            seed=seed,
        )


class TpccWrite(TraceWorkload):
    def trace(self, seed, smoke):
        return tpcc_trace(transactions=60 if smoke else 300, seed=seed)

    def config(self):
        config = experiment_config(treetop_levels=4)
        return replace(
            config, dram=replace(config.dram, model="channel", num_channels=4)
        )


class DramBypass(TraceWorkload):
    def trace(self, seed, smoke):
        return locality_mix_trace(
            0.8, accesses=10_000 if smoke else 200_000, seed=seed
        )


# --------------------------------------------------------------------- serve
class ServeZipfOpen(Workload):
    """Open loop: independent tenants offer on a fixed schedule."""

    name = "serve_zipf_open"
    op_boundary = "serve.push"
    TENANTS = 4
    SHARDS = 4
    LOAD_SCALE = 0.15

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        trace = ycsb_trace(
            num_records=2_048,
            operations=300 if smoke else 2_000,
            read_fraction=0.8,
            zipf_theta=0.99,
            seed=seed,
        )
        return {"trace": trace}

    def source(self, inputs: dict, load_scale: float = LOAD_SCALE) -> OpenLoopSource:
        return OpenLoopSource.from_trace(
            inputs["trace"], self.TENANTS, load_scale=load_scale
        )

    def input_digests(self, inputs: dict) -> Dict[str, str]:
        schedule = [
            (r.arrival_cycle, r.tenant, r.addr, r.is_write)
            for r in self.source(inputs).take_arrivals(1 << 62)
        ]
        return {
            "trace": digest(inputs["trace"].entries),
            "arrival_schedule": digest(schedule),
        }

    def ops(self, inputs: dict) -> int:
        return len(inputs["trace"])

    def build(self, inputs: dict, load_scale: float = LOAD_SCALE):
        source = self.source(inputs, load_scale)
        frontend = ServingFrontEnd.build(
            "dyn",
            inputs["trace"].footprint_blocks,
            experiment_config(),
            self.SHARDS,
            serve_config=ServeConfig(),
            health_policy=HealthPolicy(),
        )
        return frontend, source

    def run(self, state, inputs: dict):
        frontend, source = state
        return frontend.run(source)

    def result(self, report) -> SimResult:
        return report.sim

    def check(self, state, inputs, report) -> Tuple[List[str], int]:
        frontend, _source = state
        failures: List[str] = []
        ops = self.ops(inputs)
        lost = report.offered - report.served - report.shed
        if report.offered != ops:
            failures.append(f"{report.offered} offered, {ops} generated")
        if lost:
            failures.append(f"{lost} requests neither served nor shed")
        early = sum(
            1
            for r in frontend.all_requests
            if r.status == "served" and r.completion_cycle < r.arrival_cycle
        )
        if early:
            failures.append(f"{early} requests completed before they arrived")
        try:
            frontend.bank.check_invariants()
        except AssertionError as error:
            failures.append(f"ORAM invariant: {error}")
            return failures, ops
        return failures, abs(lost) + early

    def latencies(self, state) -> List[int]:
        frontend, _source = state
        return sorted(r.latency for r in frontend.all_requests if r.status == "served")

    def sim_metrics(self, state, inputs, report) -> Dict[str, float]:
        latencies = self.latencies(state)
        late = sum(1 for value in latencies if value > spec.SLO_DEADLINE_CYCLES)
        return {
            # generator lateness is 0 by construction: arrivals are simulated cycles
            "sim_cycles_per_op": report.makespan_cycles / report.served,
            "sim_latency_p50_cycles": quantile_exact(latencies, 0.5),
            "sim_latency_p99_cycles": quantile_exact(latencies, 0.99),
            "sim_latency_p999_cycles": quantile_exact(latencies, 0.999),
            "sim_slo_miss_frac": (report.shed + late) / report.offered,
        }

    def extras(self, inputs: dict, _result) -> Dict[str, float]:
        """Highest swept load scale with p99 within the deadline and nothing shed."""
        best = 0.0
        for scale in spec.SLO_LOAD_SCALES:
            state = self.build(inputs, load_scale=scale)
            report = self.run(state, inputs)
            p99 = quantile_exact(self.latencies(state), 0.99)
            if report.shed == 0 and p99 <= spec.SLO_DEADLINE_CYCLES:
                best = max(best, scale)
        return {"serve.slo_load_scale": best}

    def layer_metrics(self, state, inputs, report, host) -> Dict[str, float]:
        frontend, _source = state
        metrics = oram_layer_metrics(
            report.sim, self.ops(inputs), frontend.bank.shards
        )
        batches = report.batches
        metrics.update(
            {
                "serve.coalesced_frac": report.coalesced / report.offered,
                "serve.full_close_frac": report.full_closes / batches,
                "serve.deadline_close_frac": report.deadline_closes / batches,
                "serve.mean_batch_size": len(frontend.issued) / batches,
                "serve.shed_frac": report.shed / report.offered,
                "health.transitions": frontend.health.total_transitions(),
                "health.rerouted": report.rerouted,
            }
        )
        return metrics


# ------------------------------------------------------------------ parallel
#: per-core private region (blocks) of the pointer chase below
REGION = 2_048


def hungry_trace(core: int, total_cores: int, references: int, seed: int) -> Trace:
    """80% sequential pointer chase + 20% random over a per-core private region.

    The benchmark's own copy of the generator in ``benchmarks/bench_shards.py``,
    so an edit there cannot move this workload.
    """
    rng = DeterministicRng(seed)
    base = core * REGION
    trace = Trace(f"hungry{core}", footprint_blocks=REGION * total_cores)
    pointer = 0
    for _ in range(references):
        if rng.random() < 0.8:
            addr = base + pointer
            pointer = (pointer + 1) % REGION
        else:
            addr = base + rng.randint(0, REGION - 1)
        trace.append(rng.expovariate_int(120), addr)
    return trace


class ParallelDurable(Workload):
    """Two worker processes (= nproc), a checkpoint before every ack."""

    name = "parallel_durable_2w"
    op_boundary = "controller.sharded.demand_access"
    CORES = 4
    WORKERS = 2
    FOOTPRINT = REGION * CORES
    BATCH = 128

    def __init__(self, tmp_root: str):
        self._tmp_root = tmp_root

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        traces = [
            hungry_trace(core, self.CORES, 1_200 if smoke else 6_000, seed + core)
            for core in range(self.CORES)
        ]
        requests = capture_miss_stream(
            "dyn", traces, config=experiment_config(), num_shards=self.WORKERS
        )
        return {"traces": traces, "requests": requests}

    def input_digests(self, inputs: dict) -> Dict[str, str]:
        return {
            "traces": digest([trace.entries for trace in inputs["traces"]]),
            "request_stream": digest(inputs["requests"]),
        }

    def ops(self, inputs: dict) -> int:
        return len(inputs["requests"])

    def build(self, inputs: dict):
        checkpoint_dir = tempfile.mkdtemp(prefix=".perf_tmp_", dir=self._tmp_root)
        try:
            runtime = ParallelShardRuntime(
                "dyn",
                self.FOOTPRINT,
                experiment_config(),
                self.WORKERS,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=1,
                batch_size=self.BATCH,
            )
        except BaseException:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
            raise
        return runtime, checkpoint_dir

    def run(self, state, inputs: dict) -> SimResult:
        runtime, _checkpoint_dir = state
        return runtime.run(inputs["requests"])

    def close(self, state) -> None:
        runtime, checkpoint_dir = state
        try:
            runtime.close()
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)

    def serial_reference(self, inputs: dict) -> SimResult:
        # Looked up on the module at call time so the traced pass sees it.
        return parallel_merge.run_serial_reference(
            "dyn",
            self.FOOTPRINT,
            inputs["requests"],
            experiment_config(),
            num_shards=self.WORKERS,
        )

    def counted(self, inputs: dict, counter) -> SimResult:
        """Worker processes are invisible to the hook and the front end's
        polling loop is timing-dependent, so the calls counted are those of
        the same request stream through the in-process serial reference."""
        with counter:
            return self.serial_reference(inputs)

    def check(self, state, inputs, merged) -> Tuple[List[str], int]:
        runtime, _checkpoint_dir = state
        failures: List[str] = []
        start = time.perf_counter()
        reference = self.serial_reference(inputs)
        inputs["reference_s"] = time.perf_counter() - start
        if merged != reference:
            failures.append("merged worker result differs from run_serial_reference")
        if runtime.total_restarts():
            failures.append(f"{runtime.total_restarts()} worker restarts")
        return failures, self.ops(inputs) if failures else 0

    def sim_metrics(self, state, inputs, merged) -> Dict[str, float]:
        return {"sim_cycles_per_op": merged.cycles / self.ops(inputs)}

    def layer_metrics(self, state, inputs, merged, host) -> Dict[str, float]:
        runtime, checkpoint_dir = state
        # The shards live in the workers (and inside run_serial_reference),
        # so only what the merged SimResult carries is reachable from here.
        metrics = oram_layer_metrics(merged, self.ops(inputs), [])
        registry = runtime.metrics()
        metrics.update(
            {
                "parallel.spawn_s": host["build_s"],
                "parallel.run_s": host["run_s"],
                "parallel.serial_reference_s": host["reference_s"],
                "parallel.overhead_ratio": host["run_s"] / host["reference_s"],
                "parallel.batches": sum(
                    registry.counter(f"parallel.worker{index}.batches").value
                    for index in range(self.WORKERS)
                ),
                "parallel.checkpoint_bytes": sum(
                    os.path.getsize(os.path.join(checkpoint_dir, name))
                    for name in os.listdir(checkpoint_dir)
                ),
                "parallel.restarts": runtime.total_restarts(),
            }
        )
        return metrics


def build_workloads(tmp_root: str) -> Dict[str, object]:
    """name -> workload, in the order of :data:`spec.WORKLOADS`."""
    workloads = {
        "trace_local_read": LocalRead("trace_local_read", "dyn"),
        "trace_tpcc_write": TpccWrite("trace_tpcc_write", "dyn"),
        "serve_zipf_open": ServeZipfOpen(),
        "parallel_durable_2w": ParallelDurable(tmp_root),
        "trace_dram_bypass": DramBypass("trace_dram_bypass", "dram"),
    }
    assert tuple(workloads) == spec.ALL
    return workloads
