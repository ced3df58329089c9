#!/usr/bin/env python3
"""The repo's performance benchmark: five workloads, two currencies.

Two ways in, one measuring function (:func:`measure`):

* **one workload** (what the benchmark driver runs)::

      python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

  ``--trace 0`` sets the system up a few times (``setup_s``), runs it bare
  on fresh set-ups until ``S`` seconds have passed (at least 3 repeats),
  then once more under the call counter,
  checks the outputs, and prints every end-to-end metric of
  ``BENCHMARK.json``.  ``--trace 1`` runs it bare, then under the boundary
  shims, then under the call counter, and prints every per-layer metric.
  The last line of stdout is the result object the driver parses.

* **the whole table** (what a person runs)::

      PYTHONPATH=src python benchmarks/perf/run.py [--seed N] [--repeats R] [--out DIR]

  Every (workload, mode) above runs in its own child process with
  ``PYTHONHASHSEED=0``, the timed children round-robin across workloads
  (w1..w5, w1..w5, ...) so machine drift spreads over all samples; the
  parent prints every metric by name with its unit and writes
  ``DIR/result.json`` (provenance, samples, medians, quartiles) for
  ``compare.py``.

Nothing under ``src/`` is touched: layers are timed from outside
(``tracing.py``).  See ``README.md`` for definitions and how to read the
output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import spec  # noqa: E402  (sibling module; names only, imports nothing of the program)

DEFAULT_SEED = 1
DEFAULT_SECONDS = 6
DEFAULT_OUT = "perf_out"
MIN_TIMED_REPEATS = 3
#: setup_s is the median of SETUP_ROUNDS set-up-only rounds, cut short (but
#: never below MIN_SETUP_ROUNDS) once they have taken SETUP_BUDGET_S
SETUP_ROUNDS = 7
MIN_SETUP_ROUNDS = 3
SETUP_BUDGET_S = 2.0
LOCK_PATH = HERE / "inputs.lock.json"
GC_POLICY = "gc enabled; gc.collect() before every set-up and every measured call"
HASH_SEED_POLICY = "PYTHONHASHSEED=0 (the one-workload entry re-executes itself to set it)"

clock = time.perf_counter


def require_program() -> None:
    """Exit loudly (no result line) where there is no program to measure."""
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"run.py: no program to measure at {SRC / 'repro'}\n")
        raise SystemExit(2)


# ------------------------------------------------------------------ measuring
class Checks:
    """Output-check failures of one measurement, and the ops they cost."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.failed_ops = 0

    def add(self, outcome) -> None:
        failures, failed_ops = outcome
        self.failures += failures
        self.failed_ops += failed_ops

    def same_result(self, result, reference, where: str) -> None:
        if result != reference:
            self.failures.append(f"SimResult {where} differs from the first bare run")


def setup_samples(workload, seed, smoke) -> List[float]:
    """Set-up-only rounds: inputs from the seed, build, close; nothing run.

    Kept apart from the timed repeats because a set-up that follows a run
    takes ~1.5x one that follows a set-up: a median over a mix of the two
    moves with the number of repeats that happen to fit the budget.
    """
    rounds = 1 if smoke else SETUP_ROUNDS
    samples: List[float] = []
    start = clock()
    while len(samples) < rounds and (
        len(samples) < MIN_SETUP_ROUNDS or clock() - start < SETUP_BUDGET_S
    ):
        gc.collect()
        begin = clock()
        state = workload.build(workload.make_inputs(seed, smoke))
        samples.append(clock() - begin)
        workload.close(state)
    return samples


def timed_pass(workload, seed, smoke, budget_s, min_repeats, check_lock, checks):
    """Bare repeats, each on a fresh set-up, until the budget is spent.

    Returns what the later passes need: the last inputs, the reference
    SimResult, its sim metrics, the input digests and the host samples.
    """
    samples = {"build_s": [], "run_s": []}
    reference = None
    digests = None
    sim_metrics: Dict[str, float] = {}
    loop_start = clock()
    done = False
    while not done:
        inputs = workload.make_inputs(seed, smoke)
        if digests is None:
            digests = workload.input_digests(inputs)
            if check_lock:
                check_inputs_lock(digests, workload.name, seed, smoke)
        gc.collect()
        built = clock()
        state = workload.build(inputs)
        ready = clock()
        try:
            gc.collect()
            start = clock()
            outcome = workload.run(state, inputs)
            stop = clock()
            samples["build_s"].append(ready - built)
            samples["run_s"].append(stop - start)
            result = workload.result(outcome)
            if reference is None:
                reference = result
            checks.same_result(result, reference, "of a later repeat")
            done = len(samples["run_s"]) >= min_repeats and clock() - loop_start >= budget_s
            if done:  # output checks on the last repeat, outside any timed region
                checks.add(workload.check(state, inputs, outcome))
                sim_metrics = workload.sim_metrics(state, inputs, outcome)
        finally:
            workload.close(state)
    return inputs, reference, sim_metrics, digests, samples


def traced_pass(workload, tracer, inputs, reference, host, checks):
    """One run with the shims installed before anything is built.

    Returns the traced run time and the layer's simulated-count metrics.
    """
    gc.collect()
    with tracer:
        state = workload.build(inputs)
        try:
            start = clock()
            outcome = workload.run(state, inputs)
            traced_s = clock() - start
            checks.add(workload.check(state, inputs, outcome))
            checks.same_result(workload.result(outcome), reference, "under the shims")
            return traced_s, workload.layer_metrics(state, inputs, outcome, host)
        finally:
            workload.close(state)


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    out_dir: Optional[Path] = None,
    check_lock: bool = True,
) -> dict:
    """Run one workload in one mode in this process; return its record."""
    import tracing
    import workloads as workloads_module

    workload = workloads_module.build_workloads(str(ROOT))[workload_name]
    checks = Checks()
    budget_s = 0.0 if trace or smoke else seconds
    min_repeats = 1 if smoke else (2 if trace else MIN_TIMED_REPEATS)
    setup = [] if trace else setup_samples(workload, seed, smoke)
    inputs, reference, metrics, digests, samples = timed_pass(
        workload, seed, smoke, budget_s, min_repeats, check_lock, checks
    )
    ops = workload.ops(inputs)
    host = {
        "run_s": statistics.median(samples["run_s"]),
        "build_s": statistics.median(samples["build_s"]),
        "reference_s": inputs.get("reference_s", 0.0),
    }
    metrics["host_ops_per_s"] = ops / host["run_s"]

    # Counted pass: every call + c_call event of one more run.
    counter = tracing.CallCounter(str(SRC / "repro"))
    gc.collect()
    counted = workload.result(workload.counted(inputs, counter))
    checks.same_result(counted, reference, "under the call counter")

    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "ops": ops,
        "inputs": digests,
        "sim_digest": workloads_module.sim_digest(reference),
        "samples": {"setup_s": setup, "run_s": samples["run_s"]},
    }
    if not trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["host_pycalls_per_op"] = counter.total / ops
        metrics["host_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    else:
        tracer = tracing.Tracer(workload.op_boundary)
        traced_s, layer_metrics = traced_pass(
            workload, tracer, inputs, reference, host, checks
        )
        checks.failures += tracer.nesting_errors()[:5]
        by_name = tracer.by_name()
        counted_layers = counter.by_layer()
        for layer, (calls, self_s) in tracer.by_layer().items():
            metrics[f"{layer}.calls"] = calls
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.pycalls_per_op"] = counted_layers[layer] / ops
        metrics.update(layer_metrics)
        batch_calls = by_name["controller.sharded.access_batch"][0]
        if batch_calls:
            metrics["controller.sharded.mean_batch_size"] = (
                by_name["controller.sharded.demand_access"][0] / batch_calls
            )
        metrics["trace.overhead_ratio"] = traced_s / host["run_s"]
        metrics["trace.span_count"] = len(tracer.spans)
        metrics.update(workload.extras(inputs, reference))  # untimed comparison runs
        record["boundary_calls"] = {name: calls for name, (calls, _s) in by_name.items()}
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(out_dir / f"spans-{workload_name}.jsonl", workload_name)

    attempted = ops * len(samples["run_s"])
    metrics["failed_frac"] = checks.failed_ops / attempted
    record.update(
        metrics=metrics,
        failures=checks.failures,
        attempted=attempted,
        failed=checks.failed_ops,
        correct=not checks.failures,
    )
    return record


def check_inputs_lock(digests: Dict[str, str], workload: str, seed: int, smoke: bool) -> None:
    """Refuse to run the default seed on inputs other than the pinned ones."""
    if seed != DEFAULT_SEED:
        return
    lock = json.loads(LOCK_PATH.read_text())
    pinned = lock["smoke" if smoke else "full"].get(workload)
    if pinned != digests:
        raise SystemExit(
            f"{workload}: workload changed -- re-baseline "
            f"(inputs for seed {seed} hash to {digests}, inputs.lock.json pins "
            f"{pinned}; run with --update-lock if the change is intended)"
        )


def driver_line(record: dict) -> str:
    """The one-line result object: exactly the declared metrics of the mode."""
    if record["trace"]:
        declared = spec.driver_per_layer()
    else:
        declared = spec.driver_end_to_end()
    metrics = {
        m["name"]: {"value": record["metrics"].get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_record(record: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.per_layer_metrics()}
    mode = "traced" if record["trace"] else "timed"
    print(
        f"# {record['workload']} ({mode}) seed {record['seed']}: {record['ops']} ops, "
        f"{len(record['samples']['run_s'])} bare repeats, sim_digest {record['sim_digest'][:16]}"
    )
    for name, value in record["inputs"].items():
        print(f"#   input {name} sha256 {value[:16]}")
    for name, value in record["metrics"].items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")


# ------------------------------------------------------------- the whole table
def provenance(args, started: float, load_start) -> dict:
    def git(*command: str) -> str:
        try:
            return subprocess.run(
                ["git", *command], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "gc_policy": GC_POLICY,
        "hash_seed_policy": HASH_SEED_POLICY,
        "wall_s": time.time() - started,
    }


def run_child(name: str, trace: int, args, out_dir: Path) -> dict:
    record_path = out_dir / f"record-{name}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(out_dir), "--record", str(record_path),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.update_lock:
        command.append("--update-lock")
    env = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(command, env=env, capture_output=True, text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{name} (--trace {trace}) exited with {completed.returncode}")
    record = json.loads(record_path.read_text())
    record_path.unlink()
    return record


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0], values[0]]
    return statistics.quantiles(values, n=4)


def run_all(args) -> int:
    started = time.time()
    load_start = os.getloadavg()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    timed: Dict[str, List[dict]] = {name: [] for name in spec.ALL}
    for repeat in range(args.repeats):
        for name in spec.ALL:  # round-robin: drift lands on every workload alike
            timed[name].append(run_child(name, 0, args, out_dir))
            print(f"timed  {repeat + 1}/{args.repeats} {name}", file=sys.stderr)
    traced = {}
    for name in spec.ALL:
        traced[name] = run_child(name, 1, args, out_dir)
        print(f"traced {name}", file=sys.stderr)

    result = {"provenance": None, "workloads": {}}
    units = {m["name"]: m["unit"] for m in spec.per_layer_metrics()}
    correct = True
    for name in spec.ALL:
        first = timed[name][0]
        rows = {}
        for metric in spec.END_TO_END:
            if name not in metric["workloads"]:
                continue
            source = timed[name] if metric["name"] in first["metrics"] else [traced[name]]
            samples = [record["metrics"][metric["name"]] for record in source]
            q1, median, q3 = quartiles(samples)
            rows[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "samples": samples,
            }
        records = timed[name] + [traced[name]]
        failures = [failure for record in records for failure in record["failures"]]
        for record in records[1:]:
            if (record["sim_digest"], record["inputs"]) != (first["sim_digest"], first["inputs"]):
                failures.append("sim_digest or input hashes differ between child runs")
        correct = correct and not failures
        result["workloads"][name] = {
            "ops": first["ops"],
            "inputs": first["inputs"],
            "sim_digest": first["sim_digest"],
            "end_to_end": rows,
            "per_layer": {
                metric: {"unit": units[metric], "value": traced[name]["metrics"].get(metric, 0)}
                for metric in units
            },
            "boundary_calls": traced[name]["boundary_calls"],
            "host_samples": {
                "run_s": [record["samples"]["run_s"] for record in timed[name]],
                "setup_s": [record["samples"]["setup_s"] for record in timed[name]],
            },
            "failures": failures,
        }
    result["provenance"] = provenance(args, started, load_start)
    if args.update_lock:
        lock = json.loads(LOCK_PATH.read_text()) if LOCK_PATH.exists() else {}
        lock["seed"] = args.seed
        lock["smoke" if args.smoke else "full"] = {
            name: result["workloads"][name]["inputs"] for name in spec.ALL
        }
        LOCK_PATH.write_text(json.dumps(lock, indent=2, sort_keys=True) + "\n")
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print_table(result)
    print(f"wrote {out_dir / 'result.json'}")
    return 0 if correct else 1


def print_table(result: dict) -> None:
    info = result["provenance"]
    print(
        f"commit {info['commit'][:12]}{' (dirty)' if info['dirty'] else ''}  "
        f"python {info['python']}  nproc {info['nproc']}  seed {info['seed']}  "
        f"repeats {info['repeats']} x {info['seconds']} s  "
        f"load {info['loadavg_start'][0]:.2f} -> {info['loadavg_end'][0]:.2f}"
    )
    names = list(result["workloads"])
    print("\n== end to end (median [q1, q3] over the timed children) ==")
    for metric in spec.END_TO_END:
        for name in names:
            row = result["workloads"][name]["end_to_end"].get(metric["name"])
            if row is None:
                continue
            print(
                f"{metric['name']:26s} {name:22s} {row['median']:>14.6g} "
                f"[{row['q1']:.6g}, {row['q3']:.6g}] {row['unit']}"
            )
    print("\n== per layer (one traced + one counted run per workload) ==")
    print(f"{'metric':44s} {'unit':9s} " + " ".join(f"{name[:14]:>14s}" for name in names))
    for metric in spec.per_layer_metrics():
        values = [
            result["workloads"][name]["per_layer"][metric["name"]]["value"] for name in names
        ]
        print(
            f"{metric['name']:44s} {metric['unit']:9s} "
            + " ".join(f"{value:>14.6g}" for value in values)
        )
    for name in names:
        workload = result["workloads"][name]
        print(f"sim_digest {name:22s} {workload['sim_digest']}")
        for failure in workload["failures"]:
            print(f"CHECK FAILED {name}: {failure}")


# ------------------------------------------------------------------------ CLI
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process (driver entry)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed pass of one child measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed children per workload in whole-table mode")
    parser.add_argument("--out", default=DEFAULT_OUT, help="directory for result.json and spans")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repeat")
    parser.add_argument("--record", help="also write the full record of a one-workload run here")
    parser.add_argument("--update-lock", action="store_true",
                        help="rewrite inputs.lock.json from this whole-table run instead of "
                             "checking the generated inputs against it")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds must be positive and --repeats at least 1")
    if args.smoke:
        args.repeats = 1
    require_program()
    if args.workload is None:
        return run_all(args)

    if args.workload not in spec.ALL:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(spec.ALL)}")
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation must be fixed before the interpreter starts.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]])
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        out_dir=Path(args.out), check_lock=not args.update_lock,
    )
    print_record(record)
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    print(driver_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
