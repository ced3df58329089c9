"""Unit tests for the deterministic RNG wrapper."""

from collections import Counter

from repro.utils.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.randint(0, 100) for _ in range(50)] == [
            b.randint(0, 100) for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRng(7)
        b = DeterministicRng(8)
        assert [a.randint(0, 10**9) for _ in range(10)] != [
            b.randint(0, 10**9) for _ in range(10)
        ]

    def test_fork_is_deterministic_and_independent(self):
        a = DeterministicRng(7).fork(1)
        b = DeterministicRng(7).fork(1)
        c = DeterministicRng(7).fork(2)
        seq_a = [a.randint(0, 10**9) for _ in range(10)]
        seq_b = [b.randint(0, 10**9) for _ in range(10)]
        seq_c = [c.randint(0, 10**9) for _ in range(10)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_state_snapshot_restore(self):
        rng = DeterministicRng(3)
        rng.randint(0, 100)
        snap = rng.state_snapshot()
        first = [rng.randint(0, 100) for _ in range(5)]
        rng.state_restore(snap)
        assert [rng.randint(0, 100) for _ in range(5)] == first


class TestDistributions:
    def test_random_leaf_in_range(self):
        rng = DeterministicRng(1)
        for _ in range(1000):
            assert 0 <= rng.random_leaf(64) < 64

    def test_random_leaf_roughly_uniform(self):
        rng = DeterministicRng(1)
        counts = Counter(rng.random_leaf(8) for _ in range(8000))
        for leaf in range(8):
            assert 800 < counts[leaf] < 1200

    def test_geometric_mean(self):
        rng = DeterministicRng(2)
        draws = [rng.geometric(8.0) for _ in range(20000)]
        assert all(d >= 1 for d in draws)
        mean = sum(draws) / len(draws)
        assert 7.0 < mean < 9.0

    def test_geometric_degenerate(self):
        rng = DeterministicRng(2)
        assert all(rng.geometric(1.0) == 1 for _ in range(10))
        assert all(rng.geometric(0.5) == 1 for _ in range(10))

    def test_expovariate_int_mean(self):
        rng = DeterministicRng(3)
        draws = [rng.expovariate_int(10.0) for _ in range(20000)]
        assert all(d >= 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert 8.5 < mean < 11.0

    def test_expovariate_int_zero_mean(self):
        rng = DeterministicRng(3)
        assert rng.expovariate_int(0.0) == 0

    def test_zipf_skews_towards_low_indices(self):
        rng = DeterministicRng(4)
        counts = Counter(rng.zipf(100, 0.99) for _ in range(20000))
        assert counts[0] > counts.get(50, 0)
        assert counts[0] > counts.get(99, 0)
        assert all(0 <= k < 100 for k in counts)

    def test_zipf_theta_zero_is_uniform_ish(self):
        rng = DeterministicRng(5)
        counts = Counter(rng.zipf(10, 0.0) for _ in range(20000))
        for i in range(10):
            assert 1600 < counts[i] < 2400

    def test_permutation(self):
        rng = DeterministicRng(6)
        perm = rng.permutation(50)
        assert sorted(perm) == list(range(50))
