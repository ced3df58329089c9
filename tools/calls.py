"""``make perf-calls W=<workload> SEED=<n>``: calls/op per function.

Runs one benchmark workload (``benchmarks/perf/workloads.py``, imported
read-only) once to warm it, then once more on a fresh set-up under the
benchmark's own ``CallCounter`` -- the counted pass of
``benchmarks/perf/run.py`` -- and prints, per function, the Python calls
of its code object and the C calls made from inside its frame, each
divided by the workload's ops.  The total is the run's
``host_pycalls_per_op``.

``--base DIR`` runs the same count on the checkout at ``DIR`` (its ``src``
and ``benchmarks/perf``) in a child process and prints the two side by
side, ``base -> this``: the per-function tables of DESIGN.md section 5.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: functions under this many calls/op (on both sides) are not printed
HIDE_BELOW = 0.01


def count(root: Path, workload_name: str, seed: int) -> Tuple[int, Dict[str, list]]:
    """(ops, function -> [python calls, c calls]) of one counted run."""
    src = root / "src"
    for path in (str(src), str(root / "benchmarks" / "perf")):
        sys.path.insert(0, path)
    import tracing  # noqa: E402  (benchmarks/perf/tracing.py: run.py's counter)
    import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

    workload = workloads.build_workloads(str(root))[workload_name]
    inputs = workload.make_inputs(seed, False)
    workload.counted(inputs, contextlib.nullcontext())  # warm-up run
    counter = tracing.CallCounter(str(src / "repro"))
    gc.collect()
    workload.counted(inputs, counter)

    prefix = str(src / "repro") + "/"
    table: Dict[str, list] = {}
    # The counter's two tallies by code object: Python calls of the code,
    # C calls made from its frame.
    for column, counts in enumerate((counter._py, counter._c)):
        for code, calls in counts.items():
            filename = code.co_filename
            if filename.startswith(prefix):
                filename = filename[len(prefix):]
            else:
                filename = "(outside src/repro) " + os.path.basename(filename)
            name = getattr(code, "co_qualname", code.co_name)
            key = f"{filename}:{name}"
            table.setdefault(key, [0, 0])[column] += calls
    return workload.ops(inputs), table


def child(root: Path, args) -> Dict[str, Tuple[float, float]]:
    """The per-op table of the checkout at ``root``, counted in a child."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--json",
        "--root", str(root), "--workload", args.workload, "--seed", str(args.seed),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    output = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
    return {key: tuple(value) for key, value in json.loads(output.stdout).items()}


def render(rows: Dict[str, Tuple[float, float]], base) -> None:
    keys = set(rows) | set(base or ())
    zero = (0.0, 0.0)

    def total(row):
        return row[0] + row[1]

    def weight(key):
        return max(total(rows.get(key, zero)), total((base or {}).get(key, zero)))

    ordered = sorted(keys, key=lambda key: (-weight(key), key))
    if base is None:
        print(f"{'py/op':>9} {'c/op':>9}  function")
    else:
        print(f"{'base py':>9} {'c':>7} {'->':^4} {'py/op':>9} {'c/op':>7}  function")
    for key in ordered:
        if weight(key) < HIDE_BELOW:
            continue
        py, c = rows.get(key, zero)
        if base is None:
            print(f"{py:9.4f} {c:9.4f}  {key}")
        else:
            base_py, base_c = base.get(key, zero)
            mark = "" if (base_py, base_c) == (py, c) else "  *"
            print(f"{base_py:9.4f} {base_c:7.4f} {'->':^4} {py:9.4f} {c:7.4f}  {key}{mark}")
    here = math.fsum(map(total, rows.values()))
    if base is None:
        print(f"total {here:.5f} calls/op over {len(rows)} functions")
    else:
        there = math.fsum(map(total, base.values()))
        print(f"total {there:.5f} -> {here:.5f} calls/op")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="trace_tpcc_write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", help="checkout to compare against (prints base -> this)")
    parser.add_argument("--root", default=str(ROOT), help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # The counted pass of run.py runs with hash randomisation fixed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.base is not None:
        rows = child(Path(args.root), args)
        base = child(Path(args.base).resolve(), args)
        print(f"# {args.workload} seed {args.seed}: {args.base} -> {args.root}")
        render(rows, base)
        return 0
    ops, table = count(Path(args.root), args.workload, args.seed)
    rows = {key: (py / ops, c / ops) for key, (py, c) in table.items()}
    if args.json:
        print(json.dumps(rows))
        return 0
    print(f"# {args.workload} seed {args.seed}: {ops} ops")
    render(rows, None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
