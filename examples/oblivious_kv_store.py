#!/usr/bin/env python
"""A functional oblivious key-value store, audited by a curious adversary.

Demonstrates the *data path* of the Path ORAM substrate: values are stored
with probabilistic encryption, moved by real path accesses, and survive
background evictions -- while an attached trace recorder receives every
path access, ``adversary_view`` projects out exactly what an adversary on
the memory bus would see, and statistical tests confirm the access pattern
leaks nothing.

Run:
    python examples/oblivious_kv_store.py
"""

from repro import ObliviousKVStore
from repro.config import ORAMConfig
from repro.observability import InMemoryRecorder
from repro.security import adversary_view, chi_square_uniformity, lag_autocorrelation
from repro.utils.rng import DeterministicRng


def main() -> None:
    recorder = InMemoryRecorder()
    store = ObliviousKVStore(
        config=ORAMConfig(levels=8, bucket_size=4, stash_blocks=60, utilization=0.5),
        recorder=recorder,
    )
    print(f"store capacity: {store.capacity} keys x {store.payload_bytes} B values")

    # ---- functional use -------------------------------------------------
    store.put(17, b"attack at dawn")
    store.put(42, b"the answer")
    assert store.get(17) == b"attack at dawn"
    assert store.get(42) == b"the answer"
    store.delete(17)
    assert store.get(17) is None
    print("put/get/delete round-trips: ok")

    # A burst of random writes, then verify everything.
    rng = DeterministicRng(7)
    expected = {}
    for i in range(500):
        key = rng.randint(0, store.capacity - 1)
        value = f"value-{i}".encode()
        store.put(key, value)
        expected[key] = value
    assert all(store.get(k) == v for k, v in expected.items())
    store.oram.check_invariants()
    print(f"500 random writes verified; {store.access_count()} total path accesses")

    # ---- what the adversary saw -----------------------------------------
    leaves = [leaf for _, leaf in adversary_view(recorder.records)]
    print(f"\nadversary observed {len(leaves)} path accesses")
    num_leaves = store.config.num_leaves
    _, p_uniform = chi_square_uniformity(leaves, num_leaves)
    autocorr = lag_autocorrelation(leaves, lag=1)
    print(f"uniformity over {num_leaves} leaves: chi^2 p-value = {p_uniform:.3f}")
    print(f"lag-1 autocorrelation (unlinkability): {autocorr:+.4f}")
    if p_uniform > 0.001 and abs(autocorr) < 0.05:
        print("=> the access pattern is indistinguishable from random: oblivious.")
    else:
        print("=> WARNING: access pattern shows structure!")

    # The same key accessed twice touches unrelated paths.
    before = len(recorder.records)
    store.get(42)
    store.get(42)
    (_, first), (_, second) = adversary_view(recorder.records[before:])[:2]
    print(f"\nsame key, two reads -> paths {first} and {second} (unlinkable)")


if __name__ == "__main__":
    main()
