"""Unit + property tests for the core Path ORAM protocol.

The central property (P1 in DESIGN.md): after any sequence of accesses,
every block is on the path of its mapped leaf or in the stash, nothing is
duplicated, and nothing is lost.  ``check_invariants`` asserts exactly
that; the hypothesis test drives random access sequences against it.
"""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ORAMConfig
from repro.observability import InMemoryRecorder
from repro.oram.path_oram import PathORAM
from repro.oram.tree import BinaryTree
from repro.security.statistics import adversary_view
from repro.utils.rng import DeterministicRng


def make_oram(
    levels=5, bucket_size=3, stash=30, utilization=0.5, seed=3, treetop=0
):
    config = ORAMConfig(
        levels=levels,
        bucket_size=bucket_size,
        stash_blocks=stash,
        utilization=utilization,
        treetop_levels=treetop,
    )
    return PathORAM(config, DeterministicRng(seed))


class TestConstruction:
    def test_population_conserves_blocks(self):
        oram = make_oram()
        oram.check_invariants()

    def test_double_populate_rejected(self):
        oram = make_oram()
        with pytest.raises(RuntimeError):
            oram.populate()

    def test_deferred_population(self):
        config = ORAMConfig(levels=4)
        oram = PathORAM(config, DeterministicRng(1), populate=False)
        assert oram.tree.occupancy() == 0
        oram.populate()
        oram.check_invariants()


class TestAccess:
    def test_access_returns_block_and_remaps(self):
        oram = make_oram()
        before = oram.position_map.leaf(7)
        new_leaf = (before + 1) % oram.config.num_leaves
        blocks = oram.access([7], new_leaf=new_leaf)
        assert blocks == {7: 7 << 32 | new_leaf}
        assert oram.position_map.leaf(7) != before
        oram.check_invariants()

    def test_block_stays_in_oram_domain(self):
        oram = make_oram()
        oram.access([7])
        assert oram.locate(7) in ("tree", "stash")

    def test_super_block_access_shares_new_leaf(self):
        oram = make_oram()
        oram.position_map.remap([4, 5], leaf=oram.position_map.leaf(4))
        # Relocate physically so the invariant holds before the access:
        # easiest is to access each individually onto the shared leaf.
        oram2 = make_oram(seed=9)
        leaf = oram2.position_map.leaf(4)
        # force 5 onto the same leaf via an access with explicit new_leaf
        oram2.access([5], new_leaf=leaf)
        blocks = oram2.access([4, 5])
        assert set(blocks) == {4, 5}
        assert oram2.position_map.leaf(4) == oram2.position_map.leaf(5)
        oram2.check_invariants()

    def test_access_rejects_split_group(self):
        oram = make_oram(levels=6)
        a, b = 0, 1
        if oram.position_map.leaf(a) == oram.position_map.leaf(b):
            oram.position_map.set_leaf(b, (oram.position_map.leaf(b) + 1) % 64)
        with pytest.raises(ValueError):
            oram.access([a, b])

    def test_access_empty_rejected(self):
        oram = make_oram()
        with pytest.raises(ValueError):
            oram.access([])

    def test_begin_finish_protocol(self):
        oram = make_oram()
        blocks = oram.begin_access([3])
        assert 3 in blocks
        # Mid-access: the member is guaranteed to be in the stash.
        assert 3 in oram.stash
        with pytest.raises(RuntimeError):
            oram.begin_access([4])
        oram.finish_access()
        with pytest.raises(RuntimeError):
            oram.finish_access()
        oram.check_invariants()

    def test_remap_group_mid_access_moves_blocks(self):
        oram = make_oram()
        oram.begin_access([3])
        new_leaf = oram.remap_group([3])
        assert oram.position_map.leaf(3) == new_leaf
        assert oram.stash.blocks[3] == 3 << 32 | new_leaf
        oram.finish_access()
        oram.check_invariants()


class TestDummyAccessAndDrain:
    def test_dummy_access_does_not_remap(self):
        oram = make_oram()
        leaves_before = [oram.position_map.leaf(a) for a in range(10)]
        oram.dummy_access()
        assert [oram.position_map.leaf(a) for a in range(10)] == leaves_before
        oram.check_invariants()

    def test_dummy_access_never_grows_stash(self):
        oram = make_oram()
        for _ in range(20):
            before = len(oram.stash)
            oram.dummy_access()
            assert len(oram.stash) <= before

    def test_drain_stash_counts(self):
        oram = make_oram()
        assert oram.drain_stash() == 0  # nothing to do on a fresh ORAM

    def test_counters(self):
        oram = make_oram()
        oram.access([1])
        oram.dummy_access()
        assert oram.real_accesses == 1
        assert oram.dummy_accesses == 1


class TestPathStashOverlap:
    """A block both in the stash and on the read path is refused.

    The path read counts the blocks it moves; the stash's dict grows by
    one less when one of them was already there, and both entries raise.
    The duplicate sits in the root bucket, which is on every path: pinned
    on-chip at treetop 2 (the treetop drain), off-chip at treetop 0 (the
    DRAM loop).
    """

    def planted(self, treetop):
        oram = make_oram(treetop=treetop)
        addr, index = next(iter(oram.tree.address_index().items()))
        bucket = oram.tree.bucket(index)
        word = next(w for w in bucket if w >> 32 == addr)
        bucket.remove(word)
        oram.stash.add(word)
        oram.tree.bucket(0).append(word)
        return oram, addr

    @pytest.mark.parametrize("treetop", [0, 2])
    def test_begin_access_raises(self, treetop):
        oram, addr = self.planted(treetop)
        with pytest.raises(ValueError, match="path/stash overlap"):
            oram.begin_access([addr])

    @pytest.mark.parametrize("treetop", [0, 2])
    def test_dummy_access_raises(self, treetop):
        oram, _ = self.planted(treetop)
        with pytest.raises(ValueError, match="path/stash overlap"):
            oram.dummy_access()


class TestCallShape:
    """The path read and the write-back are plain bytecode.

    One ``PathORAM.access`` runs under ``sys.setprofile``; every builtin
    call made directly in ``read_path_into`` (the treetop levels included)
    or in ``finish_access`` (the home of the write-back) is counted by
    name.  The write-back makes exactly one bound ``list.append`` per block
    in the stash when it starts (the depth bucketing) plus the one
    ``dict.values`` view it loops over; the path is arithmetic, so neither
    function looks a path vector up (no ``dict.get``), and neither
    bulk-moves blocks through ``list.extend`` or ``dict.update``.
    Calling a type (``map``, ``zip``) raises no profiler event, so those
    two are held off by name.  A rewrite that moves this work into C-level
    chains changes these counts and must show its wall-clock pairs (DESIGN
    section 5).
    """

    HOT = ("read_path_into", "finish_access")

    def builtin_calls(self, oram, addr):
        calls = {name: Counter() for name in self.HOT}
        stash_at_writeback = []

        def hook(frame, event, arg):
            name = frame.f_code.co_name
            if name not in calls:
                return
            if event == "c_call":
                calls[name][arg.__qualname__] += 1
            elif event == "call" and name == "finish_access":
                stash_at_writeback.append(len(oram.stash))

        sys.setprofile(hook)
        try:
            oram.access([addr])
        finally:
            sys.setprofile(None)
        return {name: dict(counts) for name, counts in calls.items()}, stash_at_writeback

    @pytest.mark.parametrize("treetop", [0, 2])
    def test_one_append_per_stash_block(self, treetop):
        oram = make_oram(bucket_size=2, utilization=0.9, treetop=treetop)
        for addr in range(30):
            oram.access([addr])
        calls, stash_at_writeback = self.builtin_calls(oram, 3)
        [blocks] = stash_at_writeback
        assert blocks > len(oram.stash) > 0  # it placed some and carried some
        assert calls == {
            "read_path_into": {},
            "finish_access": {"dict.values": 1, "list.append": blocks},
        }

    def test_no_map_or_zip(self):
        for function in (BinaryTree.read_path_into, PathORAM.finish_access):
            names = function.__code__.co_names
            assert {"map", "zip", "extend", "update"}.isdisjoint(names)

class TestObserver:
    def test_observer_sees_mapped_leaf(self):
        oram = make_oram()
        oram.recorder = recorder = InMemoryRecorder()
        target = oram.position_map.leaf(5)
        oram.access([5])
        assert adversary_view(recorder.records)[-1] == (0, target)
        assert recorder.records[-1]["kind"] == "real"

    def test_observer_sees_dummies(self):
        oram = make_oram()
        oram.recorder = recorder = InMemoryRecorder()
        oram.dummy_access()
        assert recorder.records[-1]["kind"] == "dummy"


class TestInvariantProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
    def test_random_access_sequences_preserve_invariants(self, raw_addrs):
        oram = make_oram(levels=4, stash=25, seed=11)
        n = oram.position_map.num_blocks
        for raw in raw_addrs:
            oram.access([raw % n])
            oram.drain_stash()
        oram.check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_interleaved_dummy_and_real(self, seed):
        rng = DeterministicRng(seed)
        oram = make_oram(levels=4, stash=25, seed=seed % 97)
        n = oram.position_map.num_blocks
        for _ in range(30):
            if rng.random() < 0.3:
                oram.dummy_access()
            else:
                oram.access([rng.randint(0, n - 1)])
        oram.check_invariants()
