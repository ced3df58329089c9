"""Property-based tests: invariants survive arbitrary merge/break histories.

Hypothesis drives random interleavings of misses, LLC hits, and evictions
through the full dynamic-scheme + Path ORAM stack and then asserts the
structural invariants:

* P1/P3: every block on its mapped path or in the stash, none lost;
* P2: inferred super blocks always map to one leaf (by construction of the
  inference, checked via explicit group scans);
* counters always reconstruct to in-range values;
* the LLC model set and the scheme's view never diverge;
* every scheme's ``members_for`` is strictly ascending (the serving front
  end's coalesce key takes the head as the super block's leader).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ORAMConfig, SystemConfig
from repro.controller.sharded import ORAM_SCHEMES, make_policy
from repro.core.counters import bits_to_value, counter_max
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.core.thresholds import AdaptiveThresholdPolicy, StaticThresholdPolicy
from repro.oram.path_oram import PathORAM
from repro.utils.rng import DeterministicRng


class Driver:
    """Backend-shaped harness with an explicit bounded LLC set."""

    def __init__(self, seed, max_sbsize=2, policy=None, llc_lines=48, scheme=None):
        config = ORAMConfig(levels=9, bucket_size=4, stash_blocks=50, utilization=0.5)
        self.oram = PathORAM(config, DeterministicRng(seed), populate=False)
        self.llc = []
        self.llc_lines = llc_lines
        self.scheme = scheme or DynamicSuperBlockScheme(
            max_sbsize=max_sbsize, policy=policy or StaticThresholdPolicy()
        )
        self.scheme.attach(self.oram, lambda addr: addr in self.llc)
        self.scheme.initialize()
        self.oram.populate()
        self.n = self.oram.position_map.num_blocks

    def access(self, addr):
        addr %= self.n
        if addr in self.llc:
            self.scheme.on_llc_hit(addr)
            return
        members = self.scheme.members_for(addr)
        blocks = self.oram.begin_access(members)
        fetched = {m: blocks[m] for m in members if m not in self.llc}
        fills = self.scheme.process_fetch(addr, members, fetched)
        self.oram.finish_access()
        for fill in fills:
            if fill not in self.llc:
                self.llc.append(fill)
        while len(self.llc) > self.llc_lines:
            victim = self.llc.pop(0)
            self.scheme.on_llc_evict(victim)
        self.oram.drain_stash()


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=10, max_size=120),
)
def test_random_histories_preserve_oram_invariants(seed, addrs):
    driver = Driver(seed % 1000 + 1)
    for raw in addrs:
        # Mix streaming (locality) with random jumps so merging happens.
        driver.access(raw)
        driver.access(raw + 1)
    driver.oram.check_invariants()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=500))
def test_streaming_histories_merge_and_stay_consistent(seed):
    driver = Driver(seed, policy=AdaptiveThresholdPolicy(window_requests=50))
    for sweep in range(4):
        for addr in range(0, 96):
            driver.access(addr)
    driver.oram.check_invariants()
    posmap = driver.oram.position_map
    # P2: every inferred super block's members share a leaf, and the
    # counters stored in the bit fields are in range.
    for base in range(0, 96, 2):
        group_base_, size = posmap.super_block_of(base, 2)
        if size == 2:
            assert posmap.leaf(group_base_) == posmap.leaf(group_base_ + 1)
        value = bits_to_value(posmap.merge_bits(group_base_, 2))
        assert 0 <= value <= counter_max(2)
    assert driver.scheme.stats.merges > 0


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.lists(st.booleans(), min_size=20, max_size=60),
)
def test_merge_break_cycles_never_lose_blocks(seed, pattern):
    """Alternate locality-rich and locality-free episodes; blocks survive."""
    driver = Driver(seed, policy=StaticThresholdPolicy())
    rng = DeterministicRng(seed + 7)
    for streaming in pattern:
        if streaming:
            start = rng.randint(0, driver.n - 40)
            for addr in range(start, start + 32):
                driver.access(addr)
        else:
            for _ in range(32):
                driver.access(rng.randint(0, driver.n - 1))
    driver.oram.check_invariants()
    # Conservation is already asserted by check_invariants; additionally
    # the accounting stays sane.
    stats = driver.scheme.stats
    assert stats.prefetch_hits + stats.prefetch_misses <= stats.prefetched_blocks


#: an episode: unit/strided sweeps (merges), sparse re-touches of the swept
#: region that leave prefetched members unused (breaks), or random misses
EPISODES = st.sampled_from(["sweep1", "sweep2", "sweep4", "sparse", "random"])


@pytest.mark.parametrize("name", ORAM_SCHEMES)
@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.lists(EPISODES, min_size=1, max_size=12),
)
def test_members_for_is_strictly_ascending(name, seed, episodes):
    """After any merge/break history, ``members_for(addr)`` of every scheme
    holds ``addr`` and is strictly ascending."""
    scheme = make_policy(name, SystemConfig(oram=ORAMConfig(max_super_block_size=4)))
    driver = Driver(seed, scheme=scheme, llc_lines=24)
    rng = DeterministicRng(seed + 7)
    for episode in ["sweep1"] * 3 + ["sweep2", "sweep1"] + episodes:
        if episode.startswith("sweep"):
            stride = int(episode[-1])
            for addr in range(0, 40 * stride, stride):
                driver.access(addr)
        elif episode == "sparse":
            for _ in range(60):
                driver.access(4 * rng.randint(0, 30) + 2 * rng.randint(0, 1))
        else:
            for _ in range(40):
                driver.access(rng.randint(0, driver.n - 1))
    merged = 0
    for addr in range(driver.n):
        members = scheme.members_for(addr)
        assert addr in members
        assert all(low < high for low, high in zip(members, members[1:])), members
        merged += len(members) > 1
    # not vacuous: every scheme but the baseline holds a super block
    assert merged or name == "oram"
