"""Shared machinery for the figure-regeneration benchmarks.

Every ``bench_*`` module regenerates one table or figure from the paper's
evaluation section: it runs the relevant workload x scheme matrix, renders
the same series the paper plots as an ASCII table, records the table for
the terminal summary, and writes it under ``benchmarks/results/``.

Set ``REPRO_FAST=1`` to shrink the traces (quick CI pass); the numbers in
EXPERIMENTS.md come from the default lengths.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.analysis.experiments import experiment_config, run_schemes
from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.trace import Trace
from repro.workloads import named_trace

FAST = bool(int(os.environ.get("REPRO_FAST", "0")))

#: trace length for real-benchmark workloads
ACCESSES = 24_000 if FAST else 80_000
#: measurement warmup (steady-state window, see SecureSystem.run)
WARMUP = 0.5

RESULTS_DIR = Path(__file__).parent / "results"

#: tables recorded this session, printed by the terminal-summary hook
RECORDED_TABLES: "Dict[str, str]" = {}

#: session-wide simulation cache so figures sharing runs (8a/8b/8c and 9)
#: pay for each (workload, scheme, config) once; the key holds the whole
#: (frozen, hashable) ``SystemConfig``, so a bench varying any field misses
_RESULT_CACHE: Dict[tuple, SimResult] = {}


def benchmark_trace(name: str, accesses: Optional[int] = None) -> Trace:
    """``named_trace`` at the figure benches' default length."""
    return named_trace(name, accesses if accesses is not None else ACCESSES)


def run_benchmark_schemes(
    workload: str,
    schemes: Sequence[str],
    config: Optional[SystemConfig] = None,
    accesses: Optional[int] = None,
    **kwargs,
) -> Dict[str, SimResult]:
    """Cached run of a named real benchmark through the given schemes."""
    config = config or experiment_config()
    n = accesses if accesses is not None else ACCESSES
    missing = []
    out: Dict[str, SimResult] = {}
    for scheme in schemes:
        key = (workload, scheme, n, config)
        if key in _RESULT_CACHE:
            out[scheme] = _RESULT_CACHE[key]
        else:
            missing.append(scheme)
    if missing:
        trace = benchmark_trace(workload, accesses=n)
        fresh = run_schemes(trace, missing, config=config, warmup_fraction=WARMUP, **kwargs)
        for scheme, result in fresh.items():
            _RESULT_CACHE[(workload, scheme, n, config)] = result
            out[scheme] = result
    return out


def record_table(name: str, title: str, headers, rows) -> str:
    """Render, persist, and register one figure's table."""
    body = format_table(headers, rows)
    text = f"{title}\n{body}\n"
    RECORDED_TABLES[name] = text
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


def suite_average(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
