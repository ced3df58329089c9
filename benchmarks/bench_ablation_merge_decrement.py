"""Ablation -- Algorithm 1's decrement: load-time (literal) vs eviction-time.

DESIGN.md documents the one place this reproduction deviates from the
paper's pseudocode: Algorithm 1 as printed decrements the merge counter
whenever a block loads with its neighbor absent.  On a sequential scan over
a footprint larger than the LLC -- the pattern super blocks exist for --
the lower-address member of every pair always loads *before* its neighbor
arrives, so each pass contributes exactly one increment and one decrement
and the counter never reaches the threshold.  This ablation runs both
variants on the paper's flagship workload and shows the literal rule
(almost) never merges, while the eviction-time rule reproduces the paper's
gains.  (A handful of literal-mode merges can still occur where LLC
residency happens to straddle a pass boundary.)
"""

from repro.analysis.experiments import experiment_config, run_schemes
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.core.thresholds import AdaptiveThresholdPolicy
from repro.sim.system import SecureSystem

from benchmarks.figutils import WARMUP, benchmark_trace, record_table

#: full-length trace even under REPRO_FAST: the contrast needs the merge
#: training to finish well inside the measurement window (3 runs total)
ACCESSES = 80_000


def run_variant(trace, literal):
    config = experiment_config()
    system = SecureSystem.build("dyn", trace.footprint_blocks, config)
    # Swap in the requested scheme variant before running.
    scheme = DynamicSuperBlockScheme(
        max_sbsize=config.oram.max_super_block_size,
        policy=AdaptiveThresholdPolicy(),
        literal_merge_decrement=literal,
    )
    system.backend.set_policy(scheme)
    result = system.run(trace, warmup_entries=int(len(trace) * WARMUP))
    # Merges counted over the whole run, not just the window:
    total_merges = scheme.stats.merges
    return result, total_merges


def run_figure():
    trace = benchmark_trace("ocean_c", accesses=ACCESSES)
    base = run_schemes(
        trace, ["oram"], config=experiment_config(), warmup_fraction=WARMUP
    )["oram"]
    rows = []
    outcomes = {}
    for label, literal in [("eviction-time (ours)", False), ("load-time (literal)", True)]:
        result, merges = run_variant(trace, literal)
        speedup = result.speedup_over(base)
        outcomes[label] = (speedup, merges)
        rows.append([label, speedup, merges])
    return rows, outcomes


def test_ablation_merge_decrement(benchmark):
    rows, outcomes = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    record_table(
        "ablation_merge_decrement",
        "Ablation: Algorithm 1 decrement placement (ocean_c)",
        ["variant", "speedup_vs_oram", "merges"],
        rows,
    )
    ours = outcomes["eviction-time (ours)"]
    literal = outcomes["load-time (literal)"]
    # The literal rule merges an order of magnitude less and forfeits the
    # gain; the eviction-time rule delivers the paper's speedup.
    assert ours[1] > 5 * max(1, literal[1])
    assert ours[0] > literal[0] + 0.1
