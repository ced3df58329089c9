"""Unit and property tests for the merge/break counter codec (section 4.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.counters import (
    bits_to_value,
    counter_max,
    initial_break_value,
    merge_counter_width,
    saturate,
    static_merge_threshold,
    value_to_bits,
)


class TestCodec:
    def test_bits_to_value_msb_first(self):
        assert bits_to_value([1, 0]) == 2
        assert bits_to_value([0, 1]) == 1
        assert bits_to_value([1, 1, 1, 1]) == 15
        assert bits_to_value([]) == 0

    def test_value_to_bits(self):
        assert value_to_bits(2, 2) == [1, 0]
        assert value_to_bits(0, 4) == [0, 0, 0, 0]
        assert value_to_bits(15, 4) == [1, 1, 1, 1]

    def test_value_to_bits_rejects_overflow(self):
        with pytest.raises(ValueError):
            value_to_bits(4, 2)
        with pytest.raises(ValueError):
            value_to_bits(-1, 2)

    @given(st.integers(min_value=1, max_value=16))
    def test_roundtrip_property(self, width):
        # P5: packing then unpacking is the identity over the whole range.
        for value in range(min(counter_max(width) + 1, 300)):
            assert bits_to_value(value_to_bits(value, width)) == value

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16))
    def test_roundtrip_from_bits(self, bits):
        assert value_to_bits(bits_to_value(bits), len(bits)) == bits


class TestSaturation:
    def test_saturate_clamps(self):
        assert saturate(-1, 2) == 0
        assert saturate(4, 2) == 3
        assert saturate(2, 2) == 2

    @given(st.integers(min_value=-100, max_value=100), st.integers(min_value=1, max_value=8))
    def test_saturate_in_range(self, value, width):
        out = saturate(value, width)
        assert 0 <= out <= counter_max(width)


class TestPaperConstants:
    def test_merge_counter_widths(self):
        # "the merge counter ... is 2n bits long"
        assert merge_counter_width(1) == 2
        assert merge_counter_width(2) == 4
        assert merge_counter_width(4) == 8

    def test_static_merge_thresholds(self):
        # "For block size of 1, 2 and 4 before merging, this corresponds to
        # the threshold value of 2, 4 and 8, respectively."
        assert static_merge_threshold(1) == 2
        assert static_merge_threshold(2) == 4
        assert static_merge_threshold(4) == 8

    def test_threshold_fits_in_counter(self):
        for half in [1, 2, 4, 8]:
            assert static_merge_threshold(half) <= counter_max(merge_counter_width(half))

    def test_initial_break_value(self):
        # 2n saturated to the n-bit counter: sbsize 2 -> 3 (not 4).
        assert initial_break_value(2) == 3
        assert initial_break_value(4) == 8
        assert initial_break_value(8) == 16

    def test_initial_break_value_in_range(self):
        for sbsize in [2, 4, 8, 16]:
            assert 0 <= initial_break_value(sbsize) <= counter_max(sbsize)


class TestSaturationWalks:
    """P5 property: counters driven through the codec never wrap.

    The merge/break counters live as position-map bits and are updated by
    reconstruct -> adjust -> saturate -> store cycles; a missing clamp on
    either side would wrap 3 -> 0 (losing locality evidence) or 0 -> 3
    (merging on no evidence).  Model the update loop against a plain
    clamped accumulator.
    """

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.sampled_from([-1, 1]), max_size=200),
    )
    def test_unit_steps_track_clamped_accumulator(self, width, deltas):
        value = 0
        reference = 0
        top = counter_max(width)
        for delta in deltas:
            # One full store/reload/update cycle, as the scheme performs it.
            value = saturate(
                bits_to_value(value_to_bits(value, width)) + delta, width
            )
            reference = min(top, max(0, reference + delta))
            assert value == reference
            assert 0 <= value <= top

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=300),
        st.lists(st.integers(min_value=-5, max_value=5), max_size=60),
    )
    def test_arbitrary_steps_stay_in_range(self, width, start, deltas):
        value = saturate(start, width)
        for delta in deltas:
            value = saturate(value + delta, width)
            assert 0 <= value <= counter_max(width)
            assert value_to_bits(value, width)  # encodable, no overflow


class TestWidth2FastPathEquivalence:
    """The pair-counter bit ops inlined in ``core/dynamic.py`` must agree
    with the codec they bypass (the width-2 fast paths manipulate the two
    position-map bits directly instead of slicing through the codec)."""

    def test_merge_increment_matches_codec(self):
        # _run_merge singleton path: value = (m0<<1)|m1; if value < 3: +1.
        for m0 in (0, 1):
            for m1 in (0, 1):
                value = (m0 << 1) | m1
                if value < 3:
                    value += 1
                expected = saturate(bits_to_value([m0, m1]) + 1, 2)
                assert value == expected
                assert [value >> 1, value & 1] == value_to_bits(expected, 2)

    def test_evict_decrement_matches_codec(self):
        # on_llc_evict singleton path: if value: value -= 1.
        for m0 in (0, 1):
            for m1 in (0, 1):
                value = (m0 << 1) | m1
                if value:
                    value -= 1
                expected = saturate(bits_to_value([m0, m1]) - 1, 2)
                assert value == expected
                assert [value >> 1, value & 1] == value_to_bits(expected, 2)

    @given(st.integers(min_value=-10, max_value=14))
    def test_break_store_clamp_matches_codec(self, raw):
        # _run_break size==2 path: stored = 0 if raw < 0 else min(raw, 3).
        stored = 0 if raw < 0 else (3 if raw > 3 else raw)
        assert stored == saturate(raw, 2)
        assert value_to_bits(stored, 2) == [stored >> 1, stored & 1]


class TestSchemeCounterSaturation:
    """Drive the real scheme past both counter rails (width-2 fast path)."""

    def _build(self):
        from repro.config import ORAMConfig
        from repro.core.dynamic import DynamicSuperBlockScheme
        from repro.core.thresholds import StaticThresholdPolicy
        from repro.oram.path_oram import PathORAM
        from repro.utils.rng import DeterministicRng

        class NeverMerge(StaticThresholdPolicy):
            def merge_threshold(self, result_size):
                return 1000.0  # unreachable: the counter must rail, not wrap

        config = ORAMConfig(levels=5, bucket_size=4, stash_blocks=60, utilization=0.5)
        oram = PathORAM(config, DeterministicRng(5), populate=False)
        llc = set()
        scheme = DynamicSuperBlockScheme(max_sbsize=2, policy=NeverMerge())
        scheme.attach(oram, lambda addr: addr in llc)
        scheme.initialize()
        oram.populate()
        return oram, llc, scheme

    def _access(self, oram, llc, scheme, addr):
        members = scheme.members_for(addr)
        blocks = oram.begin_access(members)
        fetched = {m: blocks[m] for m in members if m not in llc}
        fills = scheme.process_fetch(addr, members, fetched)
        oram.finish_access()
        llc.update(fills)

    def _pair_counter(self, scheme):
        return (scheme._merge_bits[0] << 1) | scheme._merge_bits[1]

    def test_pair_counter_rails_high_then_low(self):
        oram, llc, scheme = self._build()
        self._access(oram, llc, scheme, 1)  # make the neighbor resident
        for _ in range(10):
            # Re-miss block 0 while 1 stays resident: +1 each time, far
            # past counter_max(2) = 3.
            llc.discard(0)
            self._access(oram, llc, scheme, 0)
        assert self._pair_counter(scheme) == 3
        assert all(bit in (0, 1) for bit in scheme._merge_bits)
        for _ in range(10):
            # Evictions with no co-residence evidence: -1 each, past 0.
            scheme._coresident[0] = 0
            scheme.on_llc_evict(0)
        assert self._pair_counter(scheme) == 0
        assert all(bit in (0, 1) for bit in scheme._merge_bits)
        oram.check_invariants()
