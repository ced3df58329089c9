"""Security tests for the Shi et al. tree ORAM.

The tree ORAM's leaf sequence must be uniform and unlinkable like Path
ORAM's: the adversary's view carries no information about the logical
pattern.
"""

from repro.observability import InMemoryRecorder
from repro.oram.tree_oram import ShiTreeORAM
from repro.security.statistics import (
    adversary_view,
    lag_autocorrelation,
    sequences_indistinguishable,
)
from repro.utils.rng import DeterministicRng


class TestShiTreeORAMSecurity:
    def run_pattern(self, addr_fn, seed):
        oram = ShiTreeORAM(levels=5, num_blocks=64, rng=DeterministicRng(seed))
        oram.recorder = recorder = InMemoryRecorder()
        for i in range(2500):
            oram.access([addr_fn(i)])
        return [leaf for _, leaf in adversary_view(recorder.records)]

    def test_unlinkability(self):
        leaves = self.run_pattern(lambda i: i % 64, seed=3)
        assert abs(lag_autocorrelation(leaves, lag=1)) < 0.07

    def test_sequential_vs_hammer_indistinguishable(self):
        seq = self.run_pattern(lambda i: i % 64, seed=3)
        hammer = self.run_pattern(lambda i: 7, seed=4)
        _, p = sequences_indistinguishable(seq, hammer, 32)
        assert p > 1e-4
