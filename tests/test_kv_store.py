"""Integration tests for the functional oblivious key-value store."""

import pytest

from repro.config import ORAMConfig
from repro.observability import InMemoryRecorder
from repro.oram.kv_store import ObliviousKVStore
from repro.security.statistics import adversary_view, chi_square_uniformity
from repro.utils.rng import DeterministicRng


def make_store(levels=6, recorder=None):
    return ObliviousKVStore(
        config=ORAMConfig(levels=levels, bucket_size=4, stash_blocks=40, utilization=0.5),
        recorder=recorder,
    )


class TestFunctionality:
    def test_get_unwritten_returns_none(self):
        store = make_store()
        assert store.get(3) is None

    def test_put_get_roundtrip(self):
        store = make_store()
        store.put(5, b"hello")
        assert store.get(5) == b"hello"

    def test_overwrite(self):
        store = make_store()
        store.put(5, b"old")
        store.put(5, b"new value")
        assert store.get(5) == b"new value"

    def test_delete(self):
        store = make_store()
        store.put(5, b"data")
        store.delete(5)
        assert store.get(5) is None

    def test_many_keys_survive_churn(self):
        store = make_store()
        rng = DeterministicRng(10)
        expected = {}
        for i in range(300):
            key = rng.randint(0, store.capacity - 1)
            value = bytes(f"value-{i}", "ascii")
            store.put(key, value)
            expected[key] = value
        for key, value in expected.items():
            assert store.get(key) == value
        store.oram.check_invariants()

    def test_key_bounds(self):
        store = make_store()
        with pytest.raises(KeyError):
            store.get(-1)
        with pytest.raises(KeyError):
            store.put(store.capacity, b"x")

    def test_value_size_bound(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.put(0, b"x" * (store.payload_bytes + 1))

    def test_access_count_tracks_operations(self):
        store = make_store()
        before = store.access_count()
        store.put(1, b"a")
        store.get(1)
        assert store.access_count() >= before + 2


class TestPersistence:
    def test_save_open_roundtrip(self, tmp_path):
        store = make_store()
        store.put(3, b"persisted")
        store.put(9, b"also here")
        path = str(tmp_path / "store.ckpt")
        store.save(path)
        reopened = ObliviousKVStore.open(path)
        assert reopened.get(3) == b"persisted"
        assert reopened.get(9) == b"also here"
        reopened.oram.check_invariants()

    def test_wrong_key_cannot_read(self, tmp_path):
        store = make_store()
        store.put(3, b"secret")
        path = str(tmp_path / "store.ckpt")
        store.save(path)
        wrong = ObliviousKVStore.open(path, key=b"\x99" * 16)
        assert wrong.get(3) != b"secret"

    def test_reopened_store_keeps_working(self, tmp_path):
        store = make_store()
        store.put(1, b"one")
        path = str(tmp_path / "store.ckpt")
        store.save(path)
        reopened = ObliviousKVStore.open(path)
        reopened.put(2, b"two")
        assert reopened.get(1) == b"one"
        assert reopened.get(2) == b"two"


class TestObliviousness:
    def test_reads_and_writes_look_identical(self):
        # One path access per operation regardless of read/write/size.
        recorder = InMemoryRecorder()
        store = make_store(recorder=recorder)

        def paths():
            return len(adversary_view(recorder.records))

        store.put(1, b"x")
        reads_start = paths()
        store.get(1)
        read_cost = paths() - reads_start
        writes_start = paths()
        store.put(2, b"y" * 64)
        write_cost = paths() - writes_start
        # Identical modulo background evictions (rare at this scale).
        assert abs(read_cost - write_cost) <= 1

    def test_repeated_key_uniform_paths(self):
        recorder = InMemoryRecorder()
        store = make_store(recorder=recorder)
        for _ in range(1500):
            store.get(7)
        leaves = [leaf for _, leaf in adversary_view(recorder.records)]
        _, p = chi_square_uniformity(leaves, 64)
        assert p > 1e-4

    def test_ciphertexts_never_repeat(self):
        # Probabilistic encryption: same value stored twice yields
        # different block payloads in the tree.
        store = make_store()
        store.put(1, b"same")
        store.oram.access([1])
        first = store.oram.tree.payloads[1]
        store.oram.drain_stash()
        store.put(1, b"same")
        store.oram.access([1])
        second = store.oram.tree.payloads[1]
        assert first != second
