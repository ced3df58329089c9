"""The adversary's view and statistical indistinguishability tests
(paper sections 2.1 and 4.6).

The curious adversary sees the *physical* access sequence: which channel
and which path (leaf label) each ORAM access touches, in order.  It never
sees program addresses, block contents (encrypted), or whether an access is
real or dummy.  :func:`adversary_view` projects exactly that out of a trace
recorder's records; every test below reads nothing else.

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
from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Sequence, Tuple

# scipy and numpy are imported inside the three functions that compute
# with them: every ``repro`` process imports this module, only the
# statistical audit ever runs it.

#: Returned by the chi-squared helpers when the sample is too small to
#: test (empty sequences, or bin coarsening collapses below two bins).
#: Statistic 0 / p-value 1 means "no evidence against the null" -- the
#: correct neutral answer for a test that could not run -- and keeps
#: :func:`windowed_uniformity` answering a short last window without
#: special-casing it.
INSUFFICIENT_DATA: Tuple[float, float] = (0.0, 1.0)


def adversary_view(records: Iterable[Mapping[str, Any]]) -> List[Tuple[int, int]]:
    """``(shard, leaf)`` of every ``path`` event of a trace, in emission order.

    The ORAMs emit one ``path`` event per path access once a recorder is
    attached (``attach_recorder`` on a backend, ``recorder=`` on a KV
    store); a lone ORAM is shard 0.  Everything else a record carries --
    the access ``kind`` (real or dummy), a span's address, merges, breaks
    and stash occupancy -- stays on-chip and is dropped.
    """
    return [
        (record["shard"], record["leaf"])
        for record in records
        if record.get("event") == "path"
    ]


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


@dataclass
class UniformityCheck:
    """Result of one windowed chi-squared test."""

    window_index: int
    samples: int
    statistic: float
    p_value: float


@dataclass
class WindowedUniformity:
    """:func:`chi_square_uniformity` of each window of a leaf sequence."""

    window: int
    alpha: float
    checks: List[UniformityCheck]

    @property
    def flagged(self) -> List[UniformityCheck]:
        return [check for check in self.checks if check.p_value < self.alpha]

    @property
    def healthy(self) -> bool:
        """True when no window fell below the alpha threshold."""
        return not self.flagged

    def render(self) -> str:
        lines = [
            f"leaf uniformity: {len(self.checks)} windows of {self.window} "
            f"(alpha={self.alpha:g})"
        ]
        if not self.checks:
            lines.append("  no complete windows observed")
            return "\n".join(lines)
        worst = min(self.checks, key=lambda check: check.p_value)
        lines.append(
            f"  worst window #{worst.window_index}: chi2={worst.statistic:.1f} "
            f"p={worst.p_value:.4g} over {worst.samples} samples"
        )
        status = "healthy" if self.healthy else f"FLAGGED ({len(self.flagged)} windows)"
        lines.append(f"  status: {status}")
        return "\n".join(lines)


def windowed_uniformity(
    leaves: Sequence[int], num_leaves: int, window: int = 4096, alpha: float = 1e-4
) -> WindowedUniformity:
    """Chi-squared uniformity of consecutive ``window``-leaf slices.

    A skewed leaf histogram is the first observable symptom of a remap
    bug, and a leak confined to some windows dilutes into a healthy whole
    run; testing each window flags it where it appears.  The last, partial
    window is tested too (a short one answers :data:`INSUFFICIENT_DATA`).
    A window is flagged when its p-value falls below ``alpha``.
    """
    if num_leaves < 2:
        raise ValueError("need at least two leaves to test uniformity")
    if window < 1:
        raise ValueError("a uniformity window needs at least 1 observation")
    checks = []
    for index, start in enumerate(range(0, len(leaves), window)):
        chunk = leaves[start:start + window]
        statistic, p_value = chi_square_uniformity(chunk, num_leaves)
        checks.append(UniformityCheck(index, len(chunk), statistic, p_value))
    return WindowedUniformity(window, alpha, checks)
