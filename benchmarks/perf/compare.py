#!/usr/bin/env python3
"""Compare two ``result.json`` files of ``run.py``: ``compare.py [--same-tree] BASE.json NEW.json``.

One row per (workload, end-to-end metric) with both medians, their
quartiles, the bound and a verdict:

* ``worse``      -- NEW's median is worse than BASE's by more than the bound;
* ``better``     -- NEW's median is better by more than BASE's own spread
                    (the distance between its quartiles);
* ``same``       -- neither;
* ``unresolved`` -- the run-to-run spread exceeds the bound and the two
                    sample ranges overlap, so the data cannot tell.

When both files carry the same clean commit and seed, every *exact* metric
(simulated cycles, call counts, per-layer counts, ``sim_digest``, input
hashes) must be equal to the digit; a difference is reported as ``worse``
because determinism broke.  ``--same-tree`` asserts that two runs of a dirty
tree measured the same code.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def verdict(metric: dict, base: dict, new: dict, same_build: bool) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    scale = 1.0 if metric["kind"] == "abs" else abs(base["median"])
    if scale == 0.0:
        scale = 1.0
    worse_by = sign * (new["median"] - base["median"]) / scale
    if metric["exact"]:
        if same_build and new["median"] != base["median"]:
            return "worse"
        if worse_by > metric["bound"]:
            return "worse"
        return "better" if worse_by < 0 else "same"
    spread_base = (base["q3"] - base["q1"]) / scale
    spread = max(spread_base, (new["q3"] - new["q1"]) / scale)
    overlap = min(base["samples"]) <= max(new["samples"]) and min(new["samples"]) <= max(
        base["samples"]
    )
    if spread > metric["bound"] and overlap:
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    if -worse_by > spread_base and not overlap:
        return "better"
    return "same"


def cell(row: dict) -> str:
    return f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}]"


def compare(base: dict, new: dict, same_tree: bool = False) -> int:
    info_base, info_new = base["provenance"], new["provenance"]
    clean = info_base["commit"] != "unknown" and not (info_base["dirty"] or info_new["dirty"])
    same_build = (
        info_base["commit"] == info_new["commit"]
        and (clean or same_tree)
        and info_base["seed"] == info_new["seed"]
        and info_base["smoke"] == info_new["smoke"]
    )
    print(
        f"BASE {info_base['commit'][:12]} seed {info_base['seed']}   "
        f"NEW {info_new['commit'][:12]} seed {info_new['seed']}   "
        + ("same commit and seed: exact metrics must be equal" if same_build else "")
    )
    print(
        f"{'metric':26s} {'workload':22s} {'base median [q1, q3]':>38s} "
        f"{'new median [q1, q3]':>38s} {'bound':>9s}  verdict"
    )
    worse = 0
    for metric in spec.END_TO_END:
        for name in spec.ALL:
            row_base = base["workloads"][name]["end_to_end"].get(metric["name"])
            row_new = new["workloads"][name]["end_to_end"].get(metric["name"])
            if row_base is None or row_new is None:
                continue
            result = verdict(metric, row_base, row_new, same_build)
            worse += result == "worse"
            bound = f"{metric['bound']:g}" + (" abs" if metric["kind"] == "abs" else "")
            print(
                f"{metric['name']:26s} {name:22s} {cell(row_base):>38s} "
                f"{cell(row_new):>38s} {bound:>9s}  {result}"
            )
    if same_build:
        for name in spec.ALL:
            work_base, work_new = base["workloads"][name], new["workloads"][name]
            for key in ("sim_digest", "inputs"):
                if work_base[key] != work_new[key]:
                    worse += 1
                    print(f"{key:26s} {name:22s} differs within one commit and seed  worse")
            for metric in spec.per_layer_metrics():
                if not spec.layer_metric_is_exact(metric["name"]):
                    continue
                value_base = work_base["per_layer"][metric["name"]]["value"]
                value_new = work_new["per_layer"][metric["name"]]["value"]
                if value_base != value_new:
                    worse += 1
                    print(
                        f"{metric['name']:26s} {name:22s} {value_base!r} != {value_new!r} "
                        "within one commit and seed  worse"
                    )
    print(f"{worse} worse")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    same_tree = "--same-tree" in argv
    if same_tree:
        argv.remove("--same-tree")
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py [--same-tree] BASE.json NEW.json\n")
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    return compare(base, new, same_tree)


if __name__ == "__main__":
    raise SystemExit(main())
