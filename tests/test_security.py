"""Obliviousness tests (P4): the adversary's view is pattern-independent.

These are the operational security checks of paper sections 2.1 and 4.6:
the observed leaf sequence must be uniform and unlinkable, and must be
statistically indistinguishable between different logical workloads --
including when super block schemes merge and break underneath.
"""

import pytest

from repro.config import ORAMConfig
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.observability import InMemoryRecorder
from repro.oram.path_oram import PathORAM
from repro.security.statistics import (
    INSUFFICIENT_DATA,
    adversary_view,
    chi_square_uniformity,
    lag_autocorrelation,
    leaf_histogram,
    sequences_indistinguishable,
)
from repro.utils.rng import DeterministicRng

LEVELS = 6
NUM_LEAVES = 1 << LEVELS
P_FLOOR = 1e-4  # tests pass unless wildly non-uniform


def run_pattern(addr_fn, accesses=3000, seed=7, scheme_factory=None):
    """Drive an ORAM (optionally with a scheme) and return observed leaves."""
    config = ORAMConfig(levels=LEVELS, bucket_size=4, stash_blocks=60, utilization=0.5)
    oram = PathORAM(config, DeterministicRng(seed), populate=False)
    oram.recorder = recorder = InMemoryRecorder()
    llc = set()
    scheme = scheme_factory() if scheme_factory else None
    if scheme is not None:
        scheme.attach(oram, lambda addr: addr in llc)
        scheme.initialize()
    oram.populate()
    n = oram.position_map.num_blocks
    for i in range(accesses):
        addr = addr_fn(i, n)
        if scheme is None:
            oram.access([addr])
        else:
            if addr in llc:
                scheme.on_llc_hit(addr)
                continue
            members = scheme.members_for(addr)
            blocks = oram.begin_access(members)
            fetched = {m: blocks[m] for m in members if m not in llc}
            fills = scheme.process_fetch(addr, members, fetched)
            oram.finish_access()
            llc.update(fills)
            if len(llc) > 64:  # small LLC: evict oldest-ish arbitrarily
                victim = min(llc)
                llc.discard(victim)
                scheme.on_llc_evict(victim)
        oram.drain_stash()
    return [leaf for _, leaf in adversary_view(recorder.records)]


class TestBaselineObliviousness:
    def test_sequential_pattern_uniform_leaves(self):
        leaves = run_pattern(lambda i, n: i % n)
        _, p = chi_square_uniformity(leaves, NUM_LEAVES)
        assert p > P_FLOOR

    def test_single_address_pattern_uniform_leaves(self):
        # Hammering one block still touches uniformly random paths.
        leaves = run_pattern(lambda i, n: 0)
        _, p = chi_square_uniformity(leaves, NUM_LEAVES)
        assert p > P_FLOOR

    def test_unlinkability(self):
        leaves = run_pattern(lambda i, n: i % n)
        assert abs(lag_autocorrelation(leaves, lag=1)) < 0.06
        assert abs(lag_autocorrelation(leaves, lag=2)) < 0.06

    def test_sequential_vs_random_indistinguishable(self):
        seq = run_pattern(lambda i, n: i % n, seed=7)
        rng = DeterministicRng(99)
        rand = run_pattern(lambda i, n: rng.randint(0, n - 1), seed=8)
        _, p = sequences_indistinguishable(seq, rand, NUM_LEAVES)
        assert p > P_FLOOR


class TestSuperBlockObliviousness:
    """Section 4.6: dynamic super blocks add no observable structure."""

    def test_dyn_scheme_leaves_uniform_under_streaming(self):
        leaves = run_pattern(
            lambda i, n: i % 128,  # heavy streaming: lots of merging
            scheme_factory=lambda: DynamicSuperBlockScheme(max_sbsize=2),
        )
        _, p = chi_square_uniformity(leaves, NUM_LEAVES)
        assert p > P_FLOOR

    def test_dyn_scheme_unlinkable(self):
        leaves = run_pattern(
            lambda i, n: i % 128,
            scheme_factory=lambda: DynamicSuperBlockScheme(max_sbsize=2),
        )
        assert abs(lag_autocorrelation(leaves, lag=1)) < 0.06

    def test_streaming_vs_random_indistinguishable_with_dyn(self):
        # The adversary cannot tell a merging-heavy workload from a
        # non-merging one by the leaf sequence.
        streaming = run_pattern(
            lambda i, n: i % 128,
            scheme_factory=lambda: DynamicSuperBlockScheme(max_sbsize=2),
            seed=7,
        )
        rng = DeterministicRng(4)
        random_leaves = run_pattern(
            lambda i, n: rng.randint(0, n - 1),
            scheme_factory=lambda: DynamicSuperBlockScheme(max_sbsize=2),
            seed=9,
        )
        n = min(len(streaming), len(random_leaves))
        _, p = sequences_indistinguishable(streaming[:n], random_leaves[:n], NUM_LEAVES)
        assert p > P_FLOOR


class TestStatisticsHelpers:
    def test_chi_square_detects_skew(self):
        skewed = [0] * 900 + [1] * 100
        _, p = chi_square_uniformity(skewed, 2)
        assert p < 1e-6

    def test_histogram(self):
        assert leaf_histogram([0, 0, 3], 4) == [2, 0, 0, 1]

    def test_empty_returns_insufficient_data(self):
        # Regression: these used to raise ValueError, which crashed any
        # live monitor fed a cold window.  Empty input is now a defined
        # "cannot test" answer: statistic 0, p-value 1.
        assert chi_square_uniformity([], 4) == INSUFFICIENT_DATA
        assert sequences_indistinguishable([], [1], 4) == INSUFFICIENT_DATA

    def test_short_sequence_does_not_collapse_to_one_bin(self):
        # Regression: the bin-coarsening loop (`while bins > 1 and
        # len(leaves)/bins < min_expected`) collapses to a single bin for
        # very short sequences, and a one-bin chi-squared has zero degrees
        # of freedom -- scipy divides by it (nan / ZeroDivision territory).
        for n in range(1, 8):
            statistic, p_value = chi_square_uniformity(list(range(n)), 64)
            assert (statistic, p_value) == INSUFFICIENT_DATA

    def test_short_pair_insufficient(self):
        result = sequences_indistinguishable([1, 2], [3, 4], 64)
        assert result == INSUFFICIENT_DATA

    def test_sufficient_data_still_tested(self):
        # The guard must not swallow real tests: a healthy-sized uniform
        # sample gets an actual chi-squared verdict, not the sentinel.
        rng = DeterministicRng(11)
        leaves = [rng.randbelow(16) for _ in range(800)]
        statistic, p_value = chi_square_uniformity(leaves, 16)
        assert statistic > 0.0
        assert p_value > P_FLOOR

    def test_autocorrelation_requires_length(self):
        with pytest.raises(ValueError):
            lag_autocorrelation([1, 2], lag=5)

    def test_linkable_sequence_flagged(self):
        # A pathological "ORAM" that reuses the previous leaf is caught.
        linkable = []
        value = 0
        rng = DeterministicRng(3)
        for _ in range(2000):
            if rng.random() < 0.7:
                value = rng.randint(0, NUM_LEAVES - 1)
            linkable.append(value)
        assert abs(lag_autocorrelation(linkable, lag=1)) > 0.2
