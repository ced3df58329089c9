"""PrORAM: Dynamic Prefetcher for Oblivious RAM -- a full reproduction.

This package reimplements the complete system of Yu et al., ISCA 2015:

* the Path ORAM substrate with recursion, background eviction, and
  probabilistic encryption (:mod:`repro.oram`);
* the PrORAM dynamic super block prefetcher -- merge/break counters,
  static and adaptive thresholding (:mod:`repro.core`);
* a trace-driven secure-processor simulator: in-order core, L1 + shared
  LLC, DRAM and ORAM memory backends, traditional prefetchers, and
  periodic timing-channel protection (:mod:`repro.sim`, :mod:`repro.cache`,
  :mod:`repro.memory`, :mod:`repro.prefetch`);
* workload models for the paper's synthetic, Splash2, SPEC06, and DBMS
  evaluations (:mod:`repro.workloads`);
* obliviousness auditing (:mod:`repro.security`) and the experiment
  harness (:mod:`repro.analysis`).

Quick start::

    from repro import SecureSystem, locality_mix_trace, run_schemes

    trace = locality_mix_trace(locality=0.8)
    results = run_schemes(trace, ["oram", "stat", "dyn"])
    gain = results["dyn"].speedup_over(results["oram"])
"""

from repro.analysis.experiments import run_schemes
from repro.config import (
    CacheConfig,
    DEFAULT_CONFIG,
    DRAMConfig,
    ORAMConfig,
    PrefetchConfig,
    SystemConfig,
    TimingProtectionConfig,
)
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.core.thresholds import AdaptiveThresholdPolicy, StaticThresholdPolicy
from repro.oram.kv_store import ObliviousKVStore
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme, StaticSuperBlockScheme
from repro.sim.results import SimResult
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace
from repro.workloads.synthetic import (
    locality_mix_trace,
    phase_change_trace,
    sequential_trace,
    uniform_random_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveThresholdPolicy",
    "BaselineScheme",
    "CacheConfig",
    "DEFAULT_CONFIG",
    "DRAMConfig",
    "DynamicSuperBlockScheme",
    "ORAMConfig",
    "ObliviousKVStore",
    "PathORAM",
    "PrefetchConfig",
    "SecureSystem",
    "SimResult",
    "StaticSuperBlockScheme",
    "StaticThresholdPolicy",
    "SystemConfig",
    "TimingProtectionConfig",
    "Trace",
    "locality_mix_trace",
    "phase_change_trace",
    "run_schemes",
    "sequential_trace",
    "uniform_random_trace",
]
