"""System-level obliviousness: the full simulator's adversary view.

The unit security tests drive the ORAM directly; these run the *entire*
secure processor (core + caches + backend + PrORAM + write-backs) and
audit what the memory bus shows.  This is the strongest form of P4 the
reproduction can check: merging, breaking, dirty write-backs and
background evictions all happen underneath, and the leaf sequence must
still look like noise.
"""

import pytest

from repro.config import CacheConfig, ORAMConfig, SystemConfig
from repro.observability import InMemoryRecorder
from repro.security.statistics import (
    adversary_view,
    chi_square_uniformity,
    lag_autocorrelation,
    sequences_indistinguishable,
)
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng

LEVELS_EXPECTED = 9  # footprint 1024 at util 0.5 on a Z=4 tree


def small_config():
    return SystemConfig(
        oram=ORAMConfig(levels=8, bucket_size=4, stash_blocks=60, utilization=0.5),
        l1=CacheConfig(capacity_bytes=2 * 1024, associativity=2),
        llc=CacheConfig(capacity_bytes=8 * 1024, associativity=8, hit_latency=8),
    )


def observed_leaves(trace, scheme="dyn"):
    system = SecureSystem.build(scheme, trace.footprint_blocks, small_config())
    recorder = system.attach_recorder(InMemoryRecorder())
    system.run(trace)
    leaves = [leaf for _, leaf in adversary_view(recorder.records)]
    return leaves, system.backend.oram.config.num_leaves


def streaming_trace(writes=0.3, n=6000, footprint=1024, seed=2):
    rng = DeterministicRng(seed)
    trace = Trace("stream", footprint_blocks=footprint)
    for i in range(n):
        trace.append(3, i % footprint, is_write=rng.random() < writes)
    return trace


def random_trace(writes=0.3, n=6000, footprint=1024, seed=5):
    rng = DeterministicRng(seed)
    trace = Trace("rand", footprint_blocks=footprint)
    for _ in range(n):
        trace.append(3, rng.randint(0, footprint - 1), is_write=rng.random() < writes)
    return trace


class TestSystemLevelObliviousness:
    def test_full_system_leaf_uniformity_with_dyn(self):
        leaves, num_leaves = observed_leaves(streaming_trace())
        _, p = chi_square_uniformity(leaves, num_leaves)
        assert p > 1e-4

    def test_full_system_unlinkability_with_dyn(self):
        leaves, _ = observed_leaves(streaming_trace())
        assert abs(lag_autocorrelation(leaves, lag=1)) < 0.06

    def test_streaming_vs_random_indistinguishable_end_to_end(self):
        seq_leaves, num_leaves = observed_leaves(streaming_trace())
        rand_leaves, _ = observed_leaves(random_trace())
        n = min(len(seq_leaves), len(rand_leaves))
        _, p = sequences_indistinguishable(seq_leaves[:n], rand_leaves[:n], num_leaves)
        assert p > 1e-4

    def test_write_heavy_vs_read_only_indistinguishable(self):
        # Reads and writes must look identical on the bus: compare an
        # all-reads run against a write-heavy run of the same addresses.
        ro_leaves, num_leaves = observed_leaves(streaming_trace(writes=0.0))
        rw_leaves, _ = observed_leaves(streaming_trace(writes=0.9, seed=2))
        n = min(len(ro_leaves), len(rw_leaves))
        _, p = sequences_indistinguishable(ro_leaves[:n], rw_leaves[:n], num_leaves)
        assert p > 1e-4

    @pytest.mark.parametrize("scheme", ["oram", "stat", "dyn", "dyn_intvl"])
    def test_every_scheme_is_uniform(self, scheme):
        leaves, num_leaves = observed_leaves(streaming_trace(n=4000), scheme=scheme)
        _, p = chi_square_uniformity(leaves, num_leaves)
        assert p > 1e-4
