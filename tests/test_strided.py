"""Unit tests for the strided super block extension (section 6.2)."""

import pytest

from repro.config import ORAMConfig
from repro.core.strided import StridedDynamicScheme
from repro.oram.path_oram import PathORAM
from repro.utils.rng import DeterministicRng


class Harness:
    """Backend-shaped driver with an explicit LLC set (as in the dyn tests)."""

    def __init__(self, strides=(1, 2, 4, 8), levels=11, seed=6):
        config = ORAMConfig(levels=levels, bucket_size=4, stash_blocks=60, utilization=0.5)
        self.oram = PathORAM(config, DeterministicRng(seed), populate=False)
        self.llc = set()
        self.scheme = StridedDynamicScheme(strides=strides)
        self.scheme.attach(self.oram, lambda addr: addr in self.llc)
        self.scheme.initialize()
        self.oram.populate()

    def miss(self, addr):
        members = self.scheme.members_for(addr)
        blocks = self.oram.begin_access(members)
        fetched = {m: blocks[m] for m in members if m not in self.llc}
        fills = self.scheme.process_fetch(addr, members, fetched)
        self.oram.finish_access()
        self.llc.update(fills)
        return fills

    def evict(self, addr):
        self.llc.discard(addr)
        self.scheme.on_llc_evict(addr)

    def paired(self, a, b):
        return self.scheme._partner.get(a) == b


class TestStridedMerging:
    def _train(self, h, a, stride, rounds=3):
        for _ in range(rounds):
            if a in h.llc:
                h.evict(a)
            if a + stride in h.llc:
                h.evict(a + stride)
            h.miss(a + stride)
            h.miss(a)  # probe sees a+stride resident -> evidence
        return h

    def test_unit_stride_pairs_form(self):
        h = Harness()
        self._train(h, 100, stride=1)
        assert h.paired(100, 101)
        h.oram.check_invariants()

    def test_large_stride_pairs_form(self):
        h = Harness()
        self._train(h, 200, stride=8)
        assert h.paired(200, 208)
        h.oram.check_invariants()

    def test_merged_pair_fetches_together(self):
        h = Harness()
        self._train(h, 300, stride=4)
        assert h.paired(300, 304)
        h.evict(300)
        h.evict(304)
        h.miss(300)
        assert 304 in h.llc  # prefetched with the demand fetch
        assert h.oram.position_map.leaf(300) == h.oram.position_map.leaf(304)

    def test_random_blocks_do_not_pair(self):
        h = Harness()
        for addr in (50, 500, 1000, 77, 800):
            h.miss(addr)
            h.evict(addr)
        assert not h.scheme._partner

    def test_unused_prefetches_break_the_pair(self):
        h = Harness()
        self._train(h, 400, stride=2)
        assert h.paired(400, 402)
        for _ in range(8):
            if 400 in h.llc:
                h.evict(400)
            if 402 in h.llc:
                h.evict(402)
            h.miss(400)  # 402 prefetched, never used
            if not h.paired(400, 402):
                break
        assert not h.paired(400, 402)
        assert h.scheme.stats.breaks >= 1
        h.oram.check_invariants()

    def test_validation(self):
        with pytest.raises(ValueError):
            StridedDynamicScheme(strides=())
        with pytest.raises(ValueError):
            StridedDynamicScheme(strides=(0,))

    def test_hardware_estimate(self):
        scheme = StridedDynamicScheme(strides=(1, 2, 4, 8))
        assert scheme.extra_state_bits_per_block() == 3  # 1 flag + 2 stride bits


class TestSystemIntegration:
    def test_scheme_label_builds_and_runs(self):
        from repro.analysis.experiments import run_schemes
        from repro.config import CacheConfig, ORAMConfig, SystemConfig
        from repro.sim.trace import Trace

        config = SystemConfig(
            oram=ORAMConfig(levels=8, bucket_size=4, stash_blocks=50),
            l1=CacheConfig(capacity_bytes=2 * 1024, associativity=2),
            llc=CacheConfig(capacity_bytes=8 * 1024, associativity=8, hit_latency=8),
        )
        # A stride-4 scan: addr, addr+4 co-used.
        trace = Trace("strided", footprint_blocks=1024)
        for sweep in range(6):
            for base in range(0, 1024, 8):
                trace.append(10, base)
                trace.append(10, base + 4)
        res = run_schemes(
            trace, ["oram", "dyn", "dyn_strided"], config=config, warmup_fraction=0.4
        )
        strided = res["dyn_strided"]
        assert strided.cycles > 0
        # The strided scheme finds the stride-4 pairs the unit-stride
        # scheme cannot, and must not lose to the baseline.
        gain = strided.speedup_over(res["oram"])
        unit_gain = res["dyn"].speedup_over(res["oram"])
        assert gain >= unit_gain - 0.02
