"""``make perf-footprint W=<workload> SEED=<n>``: what the inputs and one build hold.

Makes one benchmark workload's inputs (``benchmarks/perf/workloads.py``,
imported read-only) under ``tracemalloc``, then builds its system once the
same way, and prints for each what it left alive: the growth in GC-tracked
objects (what the cyclic collector walks on every full pass), the traced
megabytes, and the source lines that allocated most of them.  For the
inputs it also prints their traced bytes per trace entry (the inputs of
``parallel_durable_2w`` hold its captured request stream too).  The two
are measured apart, so the build's numbers are the part ``setup_s`` times
after the inputs.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: allocation sites printed, largest first
TOP_SITES = 12


def traced(make):
    """``make()`` under tracemalloc: its result, the GC-tracked objects and
    the traced bytes it left alive, and a snapshot of them."""
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        made = make()
        size, _peak = tracemalloc.get_traced_memory()
        gc.collect()
        # Counted before the snapshot, whose trace tuples are tracked objects.
        objects = len(gc.get_objects()) - objects
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return made, objects, size, snapshot


def report(title: str, objects: int, size: int, snapshot, extra: str = "") -> None:
    print(title)
    print(f"gc-tracked objects  {objects:>10,}")
    print(f"tracemalloc MB      {size / 2**20:>10.2f}")
    if extra:
        print(extra)
    print(f"{'MB':>8} {'blocks':>9}  allocation site")
    prefix = str(ROOT) + "/"
    for stat in snapshot.statistics("lineno")[:TOP_SITES]:
        frame = stat.traceback[0]
        where = frame.filename
        if where.startswith(prefix):
            where = where[len(prefix):]
        print(f"{stat.size / 2**20:8.2f} {stat.count:9,}  {where}:{frame.lineno}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="trace_tpcc_write")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for path in (ROOT / "src", ROOT / "benchmarks" / "perf"):
        sys.path.insert(0, str(path))
    import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

    workload = workloads.build_workloads(str(ROOT))[args.workload]
    inputs, objects, size, snapshot = traced(
        lambda: workload.make_inputs(args.seed, False)
    )
    traces = inputs["traces"] if "traces" in inputs else [inputs["trace"]]
    entries = sum(len(trace) for trace in traces)
    report(
        f"# {args.workload} seed {args.seed}: the inputs",
        objects,
        size,
        snapshot,
        f"bytes/trace entry   {size / entries:>10.2f}  ({entries:,} entries)",
    )
    state, objects, size, snapshot = traced(lambda: workload.build(inputs))
    try:
        report(f"# {args.workload} seed {args.seed}: one build", objects, size, snapshot)
    finally:
        workload.close(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
