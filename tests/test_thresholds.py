"""Unit tests for the static and adaptive threshold policies (section 4.4)."""

import pytest

from repro.core.thresholds import (
    AdaptiveThresholdPolicy,
    StaticThresholdPolicy,
)


class TestStaticPolicy:
    def test_merge_thresholds_match_paper(self):
        policy = StaticThresholdPolicy()
        # Result sizes 2, 4, 8 (halves of 1, 2, 4) -> thresholds 2, 4, 8.
        assert policy.merge_threshold(2) == 2
        assert policy.merge_threshold(4) == 4
        assert policy.merge_threshold(8) == 8

    def test_break_threshold_zero(self):
        policy = StaticThresholdPolicy()
        for size in [2, 4, 8]:
            assert policy.break_threshold(size) == 0.0

    def test_stat_hooks_are_noops(self):
        policy = StaticThresholdPolicy()
        policy.on_request(10, 20)
        policy.on_background_eviction()
        policy.on_prefetch_hit()
        policy.on_prefetch_miss()
        assert policy.merge_threshold(2) == 2  # unchanged


class TestAdaptivePolicy:
    def test_initial_thresholds_match_static(self):
        # Before any window completes, eviction_rate = 0 so the base term
        # vanishes: threshold_merge = sbsize, same as static for pairs.
        policy = AdaptiveThresholdPolicy()
        assert policy.merge_threshold(2) == pytest.approx(2.0)
        assert policy.break_threshold(2) == pytest.approx(0.0)

    def _fill_window(self, policy, evictions, hits, misses, busy=50, elapsed=100):
        for _ in range(policy.window_requests):
            policy.on_background_eviction(evictions)
            for _ in range(hits):
                policy.on_prefetch_hit()
            for _ in range(misses):
                policy.on_prefetch_miss()
            policy.on_request(busy_cycles=busy, elapsed_cycles=elapsed)

    def test_eviction_pressure_raises_threshold(self):
        policy = AdaptiveThresholdPolicy(window_requests=10)
        self._fill_window(policy, evictions=1, hits=1, misses=0)
        # eviction_rate = 0.5, access_rate = 0.5, hit rate 1.0:
        # base = 4 * 0.5 * 0.5 = 1 -> merge threshold 3.
        assert policy.merge_threshold(2) == pytest.approx(3.0)
        assert policy.break_threshold(2) == pytest.approx(1.0)

    def test_low_hit_rate_raises_threshold(self):
        policy = AdaptiveThresholdPolicy(window_requests=10)
        self._fill_window(policy, evictions=1, hits=0, misses=1)
        threshold_bad = policy.merge_threshold(2)
        policy2 = AdaptiveThresholdPolicy(window_requests=10)
        self._fill_window(policy2, evictions=1, hits=1, misses=0)
        assert threshold_bad > policy2.merge_threshold(2)

    def test_larger_blocks_harder_to_merge(self):
        # Equation 1's sbsize^2 term.
        policy = AdaptiveThresholdPolicy(window_requests=10)
        self._fill_window(policy, evictions=1, hits=1, misses=0)
        base2 = policy.merge_threshold(2) - 2
        base4 = policy.merge_threshold(4) - 4
        assert base4 == pytest.approx(4 * base2)

    def test_coefficient_scales(self):
        fast = AdaptiveThresholdPolicy(c_merge=1.0, window_requests=10)
        slow = AdaptiveThresholdPolicy(c_merge=8.0, window_requests=10)
        self._fill_window(fast, evictions=1, hits=1, misses=0)
        self._fill_window(slow, evictions=1, hits=1, misses=0)
        assert slow.merge_threshold(2) > fast.merge_threshold(2)

    def test_hysteresis_between_merge_and_break(self):
        # thresholdMerge = threshold + sbsize, thresholdBreak = threshold.
        policy = AdaptiveThresholdPolicy(window_requests=10)
        self._fill_window(policy, evictions=1, hits=1, misses=0)
        assert policy.merge_threshold(2) == pytest.approx(policy.break_threshold(2) + 2)

    def test_window_resets(self):
        policy = AdaptiveThresholdPolicy(window_requests=5)
        self._fill_window(policy, evictions=1, hits=1, misses=0)
        first = policy.eviction_rate
        # A calm window brings the rate back down.
        for _ in range(5):
            policy.on_request(busy_cycles=1, elapsed_cycles=100)
        assert policy.eviction_rate < first

    def test_no_prefetch_evidence_keeps_estimate(self):
        policy = AdaptiveThresholdPolicy(window_requests=5)
        self._fill_window(policy, evictions=0, hits=0, misses=1)
        after_bad = policy.prefetch_hit_rate
        assert after_bad < 1.0
        for _ in range(5):
            policy.on_request(busy_cycles=1, elapsed_cycles=2)
        assert policy.prefetch_hit_rate == after_bad  # no new evidence

    def test_access_rate_clamped(self):
        policy = AdaptiveThresholdPolicy(window_requests=3)
        for _ in range(3):
            policy.on_request(busy_cycles=500, elapsed_cycles=100)
        assert policy.access_rate == 1.0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AdaptiveThresholdPolicy(window_requests=0)


class TestZeroElapsedBoundary:
    """Equation 1 at the degenerate boundary: ``elapsed_cycles == 0``.

    A same-cycle burst (two shards of a batch completing on one cycle)
    legitimately reports zero elapsed time.  The old pipeline clamped the
    value to 1 *before* the policy saw it, fabricating wall-clock; a
    window whose every request was such a burst then divided busy cycles
    by ~1 and wildly over-reported -- while a true zero would have raised
    ``ZeroDivisionError``.  The guard now lives in the policy itself.
    """

    def test_all_zero_elapsed_window_is_saturated(self):
        # Zero elapsed with real work means the ORAM never went idle:
        # access_rate is 1, not an exception and not busy/1.
        policy = AdaptiveThresholdPolicy(window_requests=3)
        for _ in range(3):
            policy.on_request(busy_cycles=1348, elapsed_cycles=0)
        assert policy.access_rate == 1.0

    def test_zero_elapsed_zero_busy_window_is_idle(self):
        policy = AdaptiveThresholdPolicy(window_requests=2)
        for _ in range(2):
            policy.on_request(busy_cycles=0, elapsed_cycles=0)
        assert policy.access_rate == 0.0

    def test_same_cycle_burst_adds_no_elapsed(self):
        # Mixed window: the bursts add busy evidence but no wall-clock,
        # so the rate is measured over the real requests' elapsed time.
        policy = AdaptiveThresholdPolicy(window_requests=4)
        policy.on_request(busy_cycles=100, elapsed_cycles=400)
        policy.on_request(busy_cycles=100, elapsed_cycles=0)
        policy.on_request(busy_cycles=100, elapsed_cycles=0)
        policy.on_request(busy_cycles=100, elapsed_cycles=400)
        assert policy.access_rate == pytest.approx(400 / 800)

    def test_negative_elapsed_clamped(self):
        # A caller with a skewed clock cannot shrink the window total.
        policy = AdaptiveThresholdPolicy(window_requests=2)
        policy.on_request(busy_cycles=10, elapsed_cycles=-50)
        policy.on_request(busy_cycles=10, elapsed_cycles=100)
        assert policy.access_rate == pytest.approx(20 / 100)

    def test_pipeline_feeds_raw_elapsed(self):
        # Regression at the pipeline boundary: the clamp must NOT happen
        # upstream.  Force the same-cycle-burst condition (previous
        # request completed at/after this one's issue) and check that the
        # policy's window gained busy cycles but zero fabricated elapsed.
        from repro.analysis.experiments import experiment_config
        from repro.sim.system import SecureSystem

        system = SecureSystem.build("dyn", 256, experiment_config())
        backend = system.backend
        policy = backend.scheme.policy
        assert isinstance(policy, AdaptiveThresholdPolicy)
        first, _ = backend.demand_access(0, now=0, is_write=False)
        elapsed_first = policy._window.elapsed_cycles
        assert elapsed_first == first
        backend.pipeline.last_request_cycle = backend.busy_until + 10 ** 9
        backend.demand_access(1, now=backend.busy_until, is_write=False)
        assert policy._window.elapsed_cycles == elapsed_first
