"""Workload/trace generation.

Because the paper's Graphite + Splash2/SPEC06/DBMS stack cannot run here,
each benchmark is modelled as a calibrated synthetic trace (DESIGN.md
section 1.3 substitution 2): a mixture of cyclic sequential scans and
(optionally Zipfian) random accesses, parameterized by memory intensity,
footprint, spatial locality, and write fraction -- the properties the
paper's results actually depend on.
"""

from typing import Optional

from repro.sim.trace import Trace
from repro.workloads.base import MixtureWorkload, WorkloadProfile, trace_for
from repro.workloads.capture import (
    TraceRecorder,
    record_bfs,
    record_binary_search,
    record_matmul,
    record_pointer_chase,
)
from repro.workloads.dbms import DBMS_PROFILES, dbms_trace, tpcc_trace, ycsb_trace
from repro.workloads.spec06 import SPEC06_PROFILES
from repro.workloads.splash2 import SPLASH2_PROFILES
from repro.workloads.synthetic import (
    locality_mix_trace,
    phase_change_trace,
    sequential_trace,
    uniform_random_trace,
)

#: the named benchmarks by suite, in the order ``repro list`` prints them
SUITES = (
    ("Splash2", SPLASH2_PROFILES),
    ("SPEC06", SPEC06_PROFILES),
    ("DBMS", DBMS_PROFILES),
)


def named_trace(name: str, accesses: int, seed: Optional[int] = None) -> Trace:
    """The one name -> trace lookup: a benchmark of :data:`SUITES`, or the
    synthetic ``locality:<percent>`` mix.  ``seed=None`` keeps each
    generator's own default seed; an unknown name is a ``KeyError``."""
    seeded = {} if seed is None else {"seed": seed}
    if name.startswith("locality:"):
        fraction = float(name.split(":", 1)[1]) / 100.0
        return locality_mix_trace(fraction, accesses=accesses, **seeded)
    for _title, profiles in SUITES:
        for profile in profiles:
            if profile.name == name and profile.suite == "dbms":
                return dbms_trace(name, accesses=accesses, **seeded)
            if profile.name == name:
                return trace_for(profile, accesses=accesses, **seeded)
    raise KeyError(f"unknown workload '{name}'")


__all__ = [
    "DBMS_PROFILES",
    "MixtureWorkload",
    "SPEC06_PROFILES",
    "SPLASH2_PROFILES",
    "SUITES",
    "TraceRecorder",
    "WorkloadProfile",
    "locality_mix_trace",
    "named_trace",
    "phase_change_trace",
    "record_bfs",
    "record_binary_search",
    "record_matmul",
    "record_pointer_chase",
    "sequential_trace",
    "tpcc_trace",
    "uniform_random_trace",
    "ycsb_trace",
]
