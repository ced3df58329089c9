"""``make perf-footprint W=<workload> SEED=<n>``: what one build holds.

Makes one benchmark workload's inputs (``benchmarks/perf/workloads.py``,
imported read-only), then builds its system once under ``tracemalloc`` and
prints what the build left alive: the growth in GC-tracked objects (what
the cyclic collector walks on every full pass), the traced megabytes, and
the source lines that allocated most of them.  The inputs are made before
tracing starts, so the numbers are the build's, the part ``setup_s`` times
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="trace_tpcc_write")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for path in (ROOT / "src", ROOT / "benchmarks" / "perf"):
        sys.path.insert(0, str(path))
    import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

    workload = workloads.build_workloads(str(ROOT))[args.workload]
    inputs = workload.make_inputs(args.seed, False)
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    state = workload.build(inputs)
    try:
        traced, _peak = tracemalloc.get_traced_memory()
        gc.collect()
        # Counted before the snapshot, whose trace tuples are tracked objects.
        objects = len(gc.get_objects()) - objects
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        print(f"# {args.workload} seed {args.seed}: one build")
        print(f"gc-tracked objects  {objects:>10,}")
        print(f"tracemalloc MB      {traced / 2**20:>10.2f}")
        print(f"{'MB':>8} {'blocks':>9}  allocation site")
        prefix = str(ROOT) + "/"
        for stat in snapshot.statistics("lineno")[:TOP_SITES]:
            frame = stat.traceback[0]
            where = frame.filename
            if where.startswith(prefix):
                where = where[len(prefix):]
            print(f"{stat.size / 2**20:8.2f} {stat.count:9,}  {where}:{frame.lineno}")
    finally:
        workload.close(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
