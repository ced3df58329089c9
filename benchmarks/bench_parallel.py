#!/usr/bin/env python
"""Wall-clock scaling benchmark for the process-parallel shard runtime.

``bench_shards`` shows the channel-interleaved bank wins *simulated*
cycles; this benchmark shows the :mod:`repro.parallel` runtime turns that
into real wall-clock time.  The workload is the 4-core pointer-chase from
``bench_shards`` (disjoint per-core regions, every miss reaches the
ORAM): its LLC-miss stream is captured once via
:func:`repro.sim.multicore.capture_miss_stream`, then replayed through

* the in-process serial :class:`~repro.controller.sharded.ShardedORAMBank`
  (the golden oracle), and
* a :class:`~repro.parallel.runtime.ParallelShardRuntime` at 1, 2, and 4
  workers.

Every parallel result must be bit-identical to the serial merge at the
same width.  The wall-clock acceptance gate -- >= 1.8x at 4 workers over
the serial 4-shard replay -- is enforced only when the machine has at
least 4 usable CPUs (the CI runners do); on smaller hosts the bit-identity
checks still run and the gate reports SKIPPED.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --references 4000

Writes ``BENCH_parallel.json`` (override with ``-o``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_shards import REGION, hungry_trace  # noqa: E402

from repro.analysis.experiments import experiment_config  # noqa: E402
from repro.parallel import ParallelShardRuntime, run_serial_reference  # noqa: E402
from repro.sim.multicore import capture_miss_stream  # noqa: E402

SCHEME = "dyn"
CORES = 4
WORKER_COUNTS = [1, 2, 4]
ACCEPTANCE_SPEEDUP_AT_4 = 1.8
ACCEPTANCE_MIN_CPUS = 4


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--references", type=int, default=6_000, help="trace references per core"
    )
    parser.add_argument(
        "--batch", type=int, default=128, help="requests per shipped batch"
    )
    parser.add_argument("-o", "--output", default="BENCH_parallel.json")
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report only; skip the speedup/identity assertions",
    )
    args = parser.parse_args(argv)
    if args.references < 1:
        parser.error("--references must be >= 1")

    config = experiment_config()
    traces = [
        hungry_trace(core, CORES, args.references, 10 + core)
        for core in range(CORES)
    ]
    footprint = REGION * CORES
    print(f"capturing the {CORES}-core pointer-chase miss stream ...")
    requests = capture_miss_stream(SCHEME, traces, config=config, num_shards=4)
    print(f"{len(requests)} demand requests over {footprint} blocks")

    cpus = usable_cpus()
    rows = []
    identical_everywhere = True
    serial_wall_by_width = {}
    for workers in WORKER_COUNTS:
        begin = time.perf_counter()
        serial = run_serial_reference(
            SCHEME, footprint, requests, config, num_shards=workers
        )
        serial_wall = time.perf_counter() - begin
        serial_wall_by_width[workers] = serial_wall
        with tempfile.TemporaryDirectory(prefix="bench-parallel-") as ckpt:
            with ParallelShardRuntime(
                SCHEME,
                footprint,
                config,
                workers,
                checkpoint_dir=ckpt,
                checkpoint_every=0,  # none mid-run (one at the barrier): compute, not I/O
                batch_size=args.batch,
            ) as runtime:
                begin = time.perf_counter()
                parallel = runtime.run(requests)
                parallel_wall = time.perf_counter() - begin
        identical = dataclasses.asdict(parallel) == dataclasses.asdict(serial)
        identical_everywhere = identical_everywhere and identical
        speedup = serial_wall / parallel_wall if parallel_wall else float("inf")
        rows.append(
            {
                "workers": workers,
                "serial_wall_s": round(serial_wall, 4),
                "parallel_wall_s": round(parallel_wall, 4),
                "wall_speedup": round(speedup, 3),
                "sim_cycles": parallel.cycles,
                "bit_identical": identical,
            }
        )
        print(
            f"{workers} worker(s): serial {serial_wall:6.2f}s  "
            f"parallel {parallel_wall:6.2f}s  ({speedup:.2f}x)  "
            + ("bit-identical" if identical else "MISMATCH")
        )

    speedup_at_4 = rows[-1]["wall_speedup"]
    gate_applies = cpus >= ACCEPTANCE_MIN_CPUS
    gate_pass = speedup_at_4 >= ACCEPTANCE_SPEEDUP_AT_4
    if gate_applies:
        print(
            f"4-worker wall-clock speedup {speedup_at_4:.2f}x "
            f"(acceptance floor {ACCEPTANCE_SPEEDUP_AT_4:.1f}x): "
            + ("PASS" if gate_pass else "FAIL")
        )
    else:
        print(
            f"4-worker wall-clock speedup {speedup_at_4:.2f}x -- gate "
            f"SKIPPED ({cpus} usable CPU(s) < {ACCEPTANCE_MIN_CPUS}; "
            "bit-identity still enforced)"
        )
    print(
        "merged results: "
        + ("all bit-identical to serial" if identical_everywhere else "MISMATCH")
    )

    artifact = {
        "workload": "multicore_hungry",
        "scheme": SCHEME,
        "cores": CORES,
        "references_per_core": args.references,
        "region_blocks": REGION,
        "requests": len(requests),
        "batch_size": args.batch,
        "usable_cpus": cpus,
        "results": rows,
        "speedup_at_4_workers": speedup_at_4,
        "acceptance_floor": ACCEPTANCE_SPEEDUP_AT_4,
        "acceptance_gate_applied": gate_applies,
        "acceptance_pass": bool(gate_pass or not gate_applies),
        "bit_identical": identical_everywhere,
    }
    with open(args.output, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.no_assert:
        return 0
    if not identical_everywhere:
        return 1
    if gate_applies and not gate_pass:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
