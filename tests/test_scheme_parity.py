"""Cross-scheme parity: one seeded trace through every ORAMScheme.

The controller layer promises that Path ORAM, Ring ORAM and the Shi tree
ORAM are interchangeable behind the
:class:`~repro.controller.scheme.ORAMScheme` protocol.  This suite drives
each implementation with the *same* seeded address trace and asserts the
protocol-level guarantees every scheme must uphold: the full protocol
surface exists, no block is ever lost, on-chip occupancy stays bounded,
remapped positions are tracked consistently, and the shared mixin
write-back agrees with Path ORAM's hand-inlined specialization.
"""

import dataclasses

import pytest

from repro.controller.mixins import GreedyWritebackMixin
from repro.controller.scheme import PROTOCOL_SURFACE, SCHEME_FACTORIES, ORAMScheme, build_scheme
from repro.utils.rng import DeterministicRng

LEVELS = 5
NUM_BLOCKS = 80
SEED = 13
TRACE_LEN = 600


def seeded_trace(seed=SEED, length=TRACE_LEN, num_blocks=NUM_BLOCKS):
    rng = DeterministicRng(seed ^ 0xA5A5)
    return [rng.randint(0, num_blocks - 1) for _ in range(length)]


def drive(scheme, trace):
    """The controller loop: drain, access, sample occupancy."""
    max_on_chip = 0
    for addr in trace:
        scheme.drain_stash()
        fetched = scheme.begin_access([addr])
        assert addr in fetched, f"access did not return block {addr}"
        scheme.finish_access()
        if scheme.stash_occupancy > max_on_chip:
            max_on_chip = scheme.stash_occupancy
    return max_on_chip


@pytest.fixture(params=sorted(SCHEME_FACTORIES))
def scheme_name(request):
    return request.param


class TestProtocolSurface:
    def test_registered_as_virtual_subclass(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        assert isinstance(scheme, ORAMScheme)

    def test_full_surface_present(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        for attr in PROTOCOL_SURFACE:
            assert hasattr(scheme, attr), f"{scheme_name} lacks {attr}"

    def test_finish_without_begin_rejected(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        with pytest.raises(RuntimeError):
            scheme.finish_access()

    def test_double_begin_rejected(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        scheme.begin_access([0])
        with pytest.raises(RuntimeError):
            scheme.begin_access([1])

    def test_empty_access_rejected(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        with pytest.raises(ValueError):
            scheme.begin_access([])


class TestSharedTraceParity:
    def test_no_lost_blocks_and_stash_bounded(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        max_on_chip = drive(scheme, seeded_trace())
        # Invariant check proves block conservation (every implementation
        # asserts a full census) and structural health after the trace.
        scheme.check_invariants()
        # On-chip state stays within each scheme's configured bound plus
        # one in-flight super block's worth of slack.
        bound = {
            "path": scheme.config.stash_blocks if scheme_name == "path" else 0,
            "ring": getattr(scheme, "stash_capacity", 0),
            "tree": getattr(scheme, "overflow_capacity", 0),
        }[scheme_name]
        assert max_on_chip <= bound + scheme.MAX_EVICTIONS_PER_DRAIN if hasattr(
            scheme, "MAX_EVICTIONS_PER_DRAIN"
        ) else max_on_chip <= bound

    def test_position_tracking_agrees(self, scheme_name):
        """After any access, the scheme's position data covers the block.

        The position-map representation differs per scheme (PositionMap,
        leaf arrays), but each must locate every block it
        claims to hold: re-accessing immediately must succeed.
        """
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        rng = DeterministicRng(99)

        def protocol_access(addrs):
            fetched = scheme.begin_access(addrs)
            scheme.finish_access()
            return fetched

        for _ in range(120):
            addr = rng.randint(0, NUM_BLOCKS - 1)
            first = protocol_access([addr])
            again = protocol_access([addr])
            assert addr in first and addr in again
        scheme.check_invariants()

    def test_dummy_access_preserves_invariants(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        for _ in range(40):
            scheme.dummy_access()
        scheme.check_invariants()

    def test_drain_returns_zero_when_under_limit(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        assert scheme.drain_stash() == 0


class TestLeafSchemes:
    """Position-mapped tree schemes share the leaf-validation mixin."""

    @pytest.mark.parametrize("scheme_name", ["path", "ring", "tree"])
    def test_split_group_rejected_uniformly(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)

        def leaf_of(addr):
            if scheme_name == "path":
                return scheme.position_map.leaf(addr)
            return scheme.leaf_of(addr)

        # Force two blocks onto different leaves, then group them.
        if leaf_of(0) == leaf_of(1):
            scheme.access([1], new_leaf=(leaf_of(1) + 1) % (1 << LEVELS))
        with pytest.raises(ValueError, match="share a leaf"):
            scheme.begin_access([0, 1])

    @pytest.mark.parametrize("scheme_name", ["path", "ring", "tree"])
    def test_super_block_fetch_roundtrip(self, scheme_name):
        scheme = build_scheme(scheme_name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        target = 3
        scheme.access([0], new_leaf=target)
        scheme.access([1], new_leaf=target)
        fetched = scheme.access([0, 1])
        assert set(fetched) == {0, 1}
        scheme.check_invariants()


class TestMixinAgreement:
    def test_greedy_writeback_matches_path_oram_specialization(self):
        """The mixin's reference algorithm equals PathORAM's write-back."""
        self.check_agreement(seed=7, leaf_choice="last", treetop=0, table=True)

    @pytest.mark.parametrize("table", [True, False], ids=["table", "no_table"])
    @pytest.mark.parametrize("treetop", [0, 2])
    @pytest.mark.parametrize("leaf_choice", ["last", 0, 13, 31])
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_agreement_over_seeds_leaves_treetop_and_branch(
        self, seed, leaf_choice, treetop, table
    ):
        self.check_agreement(seed, leaf_choice, treetop, table)

    def check_agreement(self, seed, leaf_choice, treetop, table):
        """The mixin's reference algorithm equals PathORAM's write-back.

        Same stash, same leaf: both must place the same blocks in the same
        buckets and leave the same blocks in the stash, in the same
        insertion order -- the next eviction consumes that order.
        PathORAM's hot loop is a hand-inlined specialization of the mixin
        (byte-table depth lookup, or the bit-length arithmetic when
        ``_depth_of_xor`` is ``None``) and is pinned by the golden test --
        this guards the equivalence claim in both docstrings.  A pinned
        treetop leaves the write-back alone (one bucket store), which the
        ``treetop`` cells hold.
        """
        scheme = build_scheme("path", levels=LEVELS, num_blocks=NUM_BLOCKS, seed=SEED)
        scheme.config = dataclasses.replace(scheme.config, treetop_levels=treetop)
        if not table:
            scheme._depth_of_xor = None
        trace = seeded_trace(seed=seed, length=200)
        for addr in trace:
            scheme.access([addr])
        if leaf_choice == "last":
            leaf = scheme.position_map.leaf(trace[-1])
        else:
            leaf = leaf_choice
        # Read the path into the stash first (as every eviction's caller
        # does): both candidates must see the same stash-plus-path pool.
        # Two other paths are read before it, so the stash carries blocks
        # this path cannot take and the leftover order is not vacuous.
        store = scheme.stash.blocks
        num_leaves = scheme.config.num_leaves
        for other in (leaf + 11, leaf + 22, leaf):
            scheme.tree.read_path_into(other % num_leaves, store)
        # Reference: run the mixin on a snapshot of that pool, recording
        # placements into a scratch tree of empty buckets.
        snapshot = dict(store)
        scratch = {}

        class Ref(GreedyWritebackMixin):
            pass

        Ref()._greedy_writeback(
            leaf,
            scheme.config.levels,
            scheme.config.bucket_size,
            snapshot,
            lambda level, words: scratch.__setitem__(level, list(words)),
        )
        # Specialized: evict the real stash onto the real tree, through
        # the one write-back body (finish_access on the parked leaf).
        scheme.pending_leaf = leaf
        scheme.finish_access()
        for level in range(scheme.config.levels + 1):
            index = scheme.tree.bucket_index(level, leaf)
            actual = scheme.tree.bucket(index)
            assert actual == scratch.get(level, []), f"level {level} differs"
        assert store, "nothing left in the stash: the order check is vacuous"
        assert list(store) == list(snapshot)
        scheme.check_invariants()
