"""Figures 6a and 6b -- the synthetic locality studies (section 5.3).

* Figure 6a sweeps the fraction of data with spatial locality (Z = 4, as in
  the paper's synthetic experiments).  Expected shape: the static scheme is
  negative at low locality and rises with it; the dynamic scheme tracks the
  baseline at zero locality (never loses), gains with locality, and
  approaches the static scheme at 100%.
* Figure 6b runs the phase-change workload against the Figure 6b legend:
  ``static`` (the static scheme), ``sm_nb`` (static-threshold merging, no
  breaking), ``am_nb`` (adaptive merging, no breaking) and ``am_ab``
  (adaptive merging + adaptive breaking -- full PrORAM).  Breaking must pay
  off under phase changes.
"""

from repro.analysis.experiments import experiment_config, run_schemes
from repro.workloads.synthetic import locality_mix_trace, phase_change_trace

from benchmarks.figutils import FAST, WARMUP, record_table

ACCESSES = 30_000 if FAST else 90_000
#: Figure 6b ignores REPRO_FAST: merge training takes two passes per phase,
#: so the phase-change comparison is meaningless on short traces.
ACCESSES_6B = 90_000
FOOTPRINT = 12_288
LOCALITIES = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def run_fig6a():
    config = experiment_config()
    rows = []
    series = {}
    for locality in LOCALITIES:
        trace = locality_mix_trace(locality, footprint_blocks=FOOTPRINT, accesses=ACCESSES)
        res = run_schemes(trace, ["oram", "stat", "dyn"], config=config, warmup_fraction=WARMUP)
        stat = res["stat"].speedup_over(res["oram"])
        dyn = res["dyn"].speedup_over(res["oram"])
        series[locality] = (stat, dyn)
        rows.append([f"{locality:.1f}", stat, dyn])
    return rows, series


def test_fig06a_locality_sweep(benchmark):
    rows, series = benchmark.pedantic(run_fig6a, rounds=1, iterations=1)
    record_table(
        "fig06a_locality_sweep",
        "Figure 6a: locality sweep, speedup over baseline ORAM (Z=4)",
        ["locality", "stat", "dyn"],
        rows,
    )
    # dyn never loses; it tracks the baseline with no locality ...
    assert all(dyn > -0.03 for _, dyn in series.values())
    assert abs(series[0.0][1]) < 0.03
    # ... the static scheme is negative with no locality ...
    assert series[0.0][0] < 0.0
    # ... and locality pays for both schemes.
    assert series[1.0][1] > 0.15
    assert series[1.0][0] > 0.15
    assert series[1.0][1] > series[0.2][1]


def run_fig6b():
    # Phases must be long enough for merge training (2 passes over the
    # sequential half) *and* for the stale super blocks to be re-touched
    # and broken after the switch; the slightly higher utilization makes
    # stale merges cost what the paper charges them (background evictions).
    config = experiment_config(utilization=0.72)
    trace = phase_change_trace(
        num_phases=3, footprint_blocks=12_288, accesses=ACCESSES_6B
    )
    labels = {
        "static": "stat",
        "sm_nb": "dyn_sm_nb",
        "am_nb": "dyn_am_nb",
        "am_ab": "dyn",  # the full PrORAM: adaptive merge, adaptive break
    }
    res = run_schemes(trace, list(labels.values()) + ["oram"], config=config, warmup_fraction=0.3)
    rows = []
    outcomes = {}
    for label, scheme in labels.items():
        speedup = res[scheme].speedup_over(res["oram"])
        norm = res[scheme].normalized_memory_accesses(res["oram"])
        outcomes[label] = (speedup, norm, res[scheme].breaks, res[scheme].dummy_accesses)
        rows.append([label, speedup, norm])
    return rows, outcomes


def test_fig06b_phase_change(benchmark):
    rows, outcomes = benchmark.pedantic(run_fig6b, rounds=1, iterations=1)
    record_table(
        "fig06b_phase_change",
        "Figure 6b: phase change, speedup and normalized memory accesses",
        ["scheme", "speedup", "norm_accesses"],
        rows,
    )
    # The paper's ordering under phase changes: the static scheme loses,
    # the dynamic variants win, and the adaptive/breaking machinery beats
    # plain never-break merging.
    assert outcomes["static"][0] < 0.0
    assert outcomes["am_ab"][0] > outcomes["static"][0]
    assert outcomes["am_ab"][0] > outcomes["sm_nb"][0]
    assert outcomes["am_ab"][0] > 0.0
    # Breaking fires and saves background evictions (the energy channel).
    assert outcomes["am_ab"][2] > 0
    assert outcomes["am_ab"][3] <= outcomes["am_nb"][3]
