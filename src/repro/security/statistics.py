"""Statistical indistinguishability tests (paper sections 2.1 and 4.6).

ORAM's guarantee: for any two logical access sequences of the same length,
the physical sequences are computationally indistinguishable.  For a Path
ORAM (with or without super blocks) the observable is the leaf sequence,
which must be (a) uniform over leaves and (b) unlinkable -- independent of
both earlier accesses and the logical addresses.

These tests are necessarily statistical, not cryptographic proofs; they are
the standard sanity harness for an ORAM implementation and they catch real
bugs (e.g. forgetting to remap a super block member would skew uniformity
and create leaf repeats).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence, Tuple

# scipy and numpy are imported inside the three functions that compute
# with them: every ``repro`` process imports this module (through the
# live uniformity monitor), only the statistical audit ever runs it.

#: Returned by the chi-squared helpers when the sample is too small to
#: test (empty sequences, or bin coarsening collapses below two bins).
#: Statistic 0 / p-value 1 means "no evidence against the null" -- the
#: correct neutral answer for a test that could not run -- and keeps
#: live monitors (``repro.observability.uniformity``) working during
#: warm-up without special-casing short windows.
INSUFFICIENT_DATA: Tuple[float, float] = (0.0, 1.0)


def chi_square_uniformity(
    leaves: Sequence[int], num_leaves: int, min_expected: float = 5.0
) -> Tuple[float, float]:
    """Chi-squared goodness-of-fit of the leaf histogram against uniform.

    Bins are coarsened (by grouping adjacent leaves) until the expected
    count per bin reaches ``min_expected``, the standard validity condition.

    Returns:
        (statistic, p_value); a healthy ORAM gives a p-value that is not
        tiny (the tests assert p > 1e-4 to keep flakiness negligible).
        Sequences too short to test return :data:`INSUFFICIENT_DATA`
        rather than raising: the coarsening loop would otherwise collapse
        to a single bin, and a one-bin chi-squared has zero degrees of
        freedom (scipy divides by it).
    """
    if not leaves:
        return INSUFFICIENT_DATA
    bins = num_leaves
    shift = 0
    while bins > 1 and len(leaves) / bins < min_expected:
        bins //= 2
        shift += 1
    if bins < 2:
        return INSUFFICIENT_DATA
    counts = Counter(leaf >> shift for leaf in leaves)
    observed = [counts.get(i, 0) for i in range(bins)]
    from scipy import stats as scipy_stats

    statistic, p_value = scipy_stats.chisquare(observed)
    return float(statistic), float(p_value)


def lag_autocorrelation(leaves: Sequence[int], lag: int = 1) -> float:
    """Pearson autocorrelation of the leaf sequence at the given lag.

    Unlinkability implies this should be ~0: knowing the current path tells
    the adversary nothing about the next one.
    """
    if len(leaves) <= lag + 1:
        raise ValueError("sequence too short for the requested lag")
    import numpy as np

    x = np.asarray(leaves[:-lag], dtype=float)
    y = np.asarray(leaves[lag:], dtype=float)
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def sequences_indistinguishable(
    leaves_a: Sequence[int],
    leaves_b: Sequence[int],
    num_leaves: int,
    min_expected: float = 5.0,
) -> Tuple[float, float]:
    """Chi-squared homogeneity test between two observed leaf sequences.

    This is the operational form of the ORAM definition: run two different
    *logical* workloads and check the adversary cannot tell the physical
    sequences apart.  Returns (statistic, p_value); indistinguishable
    sequences give a non-tiny p-value.  Sequences too short to bin (or
    empty) return :data:`INSUFFICIENT_DATA` -- see
    :func:`chi_square_uniformity`.
    """
    if not leaves_a or not leaves_b:
        return INSUFFICIENT_DATA
    bins = num_leaves
    shift = 0
    smallest = min(len(leaves_a), len(leaves_b))
    while bins > 1 and smallest / bins < min_expected:
        bins //= 2
        shift += 1
    if bins < 2:
        return INSUFFICIENT_DATA
    count_a = Counter(leaf >> shift for leaf in leaves_a)
    count_b = Counter(leaf >> shift for leaf in leaves_b)
    table = [
        [count_a.get(i, 0) for i in range(bins)],
        [count_b.get(i, 0) for i in range(bins)],
    ]
    # Drop bins empty in both rows (chi2_contingency rejects zero columns).
    cols = [
        [row[i] for row in table]
        for i in range(bins)
        if table[0][i] + table[1][i] > 0
    ]
    if len(cols) < 2:
        return INSUFFICIENT_DATA
    contingency = [[col[0] for col in cols], [col[1] for col in cols]]
    from scipy import stats as scipy_stats

    statistic, p_value, _, _ = scipy_stats.chi2_contingency(contingency)
    return float(statistic), float(p_value)


def leaf_histogram(leaves: Sequence[int], num_leaves: int) -> List[int]:
    """Raw per-leaf access counts (plot/debug helper)."""
    counts = Counter(leaves)
    return [counts.get(i, 0) for i in range(num_leaves)]
