"""``make perf-footprint W=<workload> SEED=<n>``: what the inputs, one build
and one run hold.

Makes one benchmark workload's inputs (``benchmarks/perf/workloads.py``,
imported read-only), builds its system once the same way and runs it
once, all in one ``tracemalloc`` session, and prints for each step what it
left alive on top of the step before: the growth in GC-tracked objects
(what the cyclic collector walks on every full pass), the traced
megabytes, and the source lines whose allocations grew most.  For the
inputs it also prints their traced bytes per trace entry (the inputs of
``parallel_durable_2w`` hold its captured request stream too).  The
build's numbers are the part ``setup_s`` times after the inputs; the
run's are what the built system keeps from running (state kept per
access or per leaf), which the benchmark's peak still holds while it
builds the next repeat.  ``parallel_durable_2w`` runs its shards in worker
processes, out of the tracer's sight, so its run is the in-process serial
reference, as its counted pass is.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: allocation sites printed, largest first
TOP_SITES = 12


def tracked_objects() -> int:
    """GC-tracked objects once collection has settled.

    The collector stops tracking a tuple only after its items, and a
    snapshot's traces are tuples nested three deep, made outermost first:
    collect until the count holds still.
    """
    count = -1
    while True:
        gc.collect()
        settled, count = count, len(gc.get_objects())
        if count == settled:
            return count


class Tracer:
    """One ``tracemalloc`` session read in steps.

    :meth:`step` runs ``make()`` and prints what it left alive on top of
    what the steps before it left: the growth in GC-tracked objects, in
    traced megabytes, and the allocation sites that grew most.  A step's
    frees count against it, so a run that replaces a bucket list it did
    not allocate nets out to the size difference.
    """

    def __enter__(self) -> "Tracer":
        self.snapshot = None
        self.size = 0
        self.objects = tracked_objects()
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        tracemalloc.stop()

    def step(self, title: str, make, extra=None):
        """``make()``, reported under ``title``; ``extra(made, grown_bytes)``
        is one more line for the report.  Returns what ``make`` made."""
        made = make()
        # Both read once collection has settled: what the step left alive,
        # not the cyclic garbage it has yet to free.
        objects = tracked_objects() - self.objects
        size, _peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        grown = size - self.size
        print(title)
        print(f"gc-tracked objects  {objects:>10,}")
        print(f"tracemalloc MB      {grown / 2**20:>10.2f}")
        if extra is not None:
            print(extra(made, grown))
        print(f"{'MB':>8} {'blocks':>9}  allocation site")
        if self.snapshot is None:
            sites = snapshot.statistics("lineno")
        else:
            sites = snapshot.compare_to(self.snapshot, "lineno")
        prefix = str(ROOT) + "/"
        for stat in sites[:TOP_SITES]:
            frame = stat.traceback[0]
            where = frame.filename
            if where.startswith(prefix):
                where = where[len(prefix):]
            size_mb = getattr(stat, "size_diff", stat.size) / 2**20
            count = getattr(stat, "count_diff", stat.count)
            print(f"{size_mb:8.2f} {count:9,}  {where}:{frame.lineno}")
        del sites
        self.snapshot, self.size = snapshot, size
        # The next step starts from here, with this snapshot alive.
        self.objects = tracked_objects()
        return made


def bytes_per_entry(inputs, grown: int) -> str:
    traces = inputs["traces"] if "traces" in inputs else [inputs["trace"]]
    entries = sum(len(trace) for trace in traces)
    return f"bytes/trace entry   {grown / entries:>10.2f}  ({entries:,} entries)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="trace_tpcc_write")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for path in (ROOT / "src", ROOT / "benchmarks" / "perf"):
        sys.path.insert(0, str(path))
    import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

    workload = workloads.build_workloads(str(ROOT))[args.workload]
    name = f"# {args.workload} seed {args.seed}"
    with Tracer() as tracer:
        inputs = tracer.step(
            f"{name}: the inputs",
            partial(workload.make_inputs, args.seed, False),
            bytes_per_entry,
        )
        state = tracer.step(f"{name}: one build", partial(workload.build, inputs))
        try:
            if hasattr(workload, "serial_reference"):
                run = partial(workload.serial_reference, inputs)
            else:
                run = partial(workload.run, state, inputs)
            tracer.step(f"{name}: what one run adds", run)
        finally:
            workload.close(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
