#!/usr/bin/env python
"""Reproduce one Figure 8 bar: a named benchmark across all schemes.

Usage:
    python examples/secure_processor_sim.py [benchmark] [accesses]

``benchmark`` is any of the paper's workloads -- the fourteen Splash2 names
(water_ns ... ocean_nc), the ten SPEC06 names (h264 ... mcf), or YCSB /
TPCC.  Default: ocean_c, the paper's flagship (42% gain for PrORAM).
"""

import sys

from repro.analysis.experiments import experiment_config, run_schemes
from repro.analysis.tables import format_table
from repro.workloads import SUITES, named_trace


def build_trace(name: str, accesses: int):
    try:
        return named_trace(name, accesses)
    except KeyError:
        known = [p.name for _suite, profiles in SUITES for p in profiles]
        raise SystemExit(f"unknown benchmark '{name}'; choose from: {', '.join(known)}")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "ocean_c"
    accesses = int(sys.argv[2]) if len(sys.argv) > 2 else 80_000
    trace = build_trace(name, accesses)
    print(f"Simulating {name}: {len(trace)} references over {trace.footprint_blocks} blocks ...")

    results = run_schemes(
        trace,
        ["dram", "oram", "stat", "dyn"],
        config=experiment_config(),
        warmup_fraction=0.5,
    )
    oram = results["oram"]
    rows = []
    for scheme in ("dram", "oram", "stat", "dyn"):
        r = results[scheme]
        rows.append(
            [
                scheme,
                r.cycles,
                r.llc_misses,
                r.total_memory_accesses,
                r.speedup_over(oram),
                r.normalized_memory_accesses(oram) if oram.total_memory_accesses else 0.0,
            ]
        )
    print(
        format_table(
            ["scheme", "cycles", "llc_misses", "mem_accesses", "speedup_vs_oram", "norm_energy"],
            rows,
        )
    )
    print()
    print(f"ORAM overhead over DRAM: {oram.cycles / results['dram'].cycles:.1f}x")
    dyn = results["dyn"]
    print(
        f"PrORAM: {dyn.merges} merges, {dyn.breaks} breaks, "
        f"prefetch miss rate {dyn.prefetch_miss_rate:.1%}, "
        f"background eviction rate {dyn.background_eviction_rate:.1%}"
    )


if __name__ == "__main__":
    main()
