"""Figure 12 -- sweeping the stash size (section 5.5.3).

Completion time normalized to the insecure DRAM system.  Paper shape: the
baseline ORAM barely cares (its background eviction rate is already low);
the super block schemes improve with stash size because multiple blocks
enter the stash per access; and the dynamic scheme shows significant gains
even at small stash sizes, unlike the static scheme.
"""

from benchmarks.figutils import ACCESSES, FAST, WARMUP, benchmark_trace, record_table
from repro.analysis.experiments import experiment_config, run_schemes

STASH_SIZES = [25, 50, 100, 200, 400]
SCHEMES = ["dram", "oram", "stat", "dyn"]


def run_workload(name):
    rows = []
    outcomes = {}
    trace = benchmark_trace(name, accesses=ACCESSES)
    for stash in STASH_SIZES:
        config = experiment_config(stash_blocks=stash)
        res = run_schemes(trace, SCHEMES, config=config, warmup_fraction=WARMUP)
        dram = res["dram"]
        normalized = {s: res[s].normalized_completion_time(dram) for s in ("oram", "stat", "dyn")}
        outcomes[stash] = normalized
        rows.append([stash, normalized["oram"], normalized["stat"], normalized["dyn"]])
    return rows, outcomes


def test_fig12_ocean_c(benchmark):
    rows, outcomes = benchmark.pedantic(run_workload, args=("ocean_c",), rounds=1, iterations=1)
    record_table(
        "fig12a_stash_size_ocean_c",
        "Figure 12a: stash size sweep, ocean_c (completion time / DRAM)",
        ["stash", "oram", "stat", "dyn"],
        rows,
    )
    # The baseline is insensitive to stash size ...
    oram_vals = [norm["oram"] for norm in outcomes.values()]
    assert max(oram_vals) - min(oram_vals) < 0.15 * min(oram_vals)
    # ... super block schemes gain from a larger stash ...
    assert outcomes[400]["stat"] <= outcomes[25]["stat"]
    if not FAST:
        # ... and dyn beats the baseline already at a small stash (needs
        # trained merges; the shortened warm-up ends before ocean_c's do).
        assert outcomes[50]["dyn"] < outcomes[50]["oram"]


def test_fig12_volrend(benchmark):
    rows, outcomes = benchmark.pedantic(run_workload, args=("volrend",), rounds=1, iterations=1)
    record_table(
        "fig12b_stash_size_volrend",
        "Figure 12b: stash size sweep, volrend (completion time / DRAM)",
        ["stash", "oram", "stat", "dyn"],
        rows,
    )
    # No locality: dyn tracks the baseline at every stash size.
    for norm in outcomes.values():
        assert abs(norm["dyn"] - norm["oram"]) / norm["oram"] < 0.05
