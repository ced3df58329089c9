"""Differential test: bulk leaf draw + flat deepest placement vs the
per-block build they replaced.

The reference below is the pre-refactor build path, kept here (and only
here) as an oracle:

* :func:`reference_leaves` draws one ``random_leaf`` per block through a
  generator -- the old ``PositionMap`` / ``RingORAM`` / ``ShiTreeORAM``
  constructor loops;
* :func:`reference_place_deepest` is the old
  ``DeepestPlacementMixin._place_deepest``: one ``bucket_for(level, leaf)``
  closure call per level, deepest first;
* :func:`reference_populate` is the old ``PathORAM.populate`` body over a
  fresh ``BinaryTree`` / ``Stash``.

A build must match the oracle in posmap leaves, bucket contents in list
order, stash order, ``max_occupancy`` and the state every RNG involved is
left in, with and without a pinned treetop and a deferred populate.
"""

from array import array

import pytest

from repro.config import ORAMConfig
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.stash import Stash
from repro.oram.tree import BinaryTree
from repro.oram.tree_oram import ShiTreeORAM
from repro.utils.rng import DeterministicRng

POSMAP_SALT = 0x9E3779B9  # PathORAM forks its position map's RNG with this


# ------------------------------------------------------------- the reference
def reference_leaves(rng, num_leaves, count):
    return array("q", (rng.random_leaf(num_leaves) for _ in range(count)))


def reference_place_deepest(addr, leaf, levels, capacity, bucket_for):
    for level in range(levels, -1, -1):
        bucket = bucket_for(level, leaf)
        if len(bucket) < capacity:
            bucket.append(addr << 32 | leaf)
            return True
    return False


def reference_populate(config, leaves):
    """Old ``PathORAM.populate`` into a fresh tree and stash.  A treetop
    does not enter: the tree keeps one store whatever is pinned."""
    tree = BinaryTree(config.levels, config.bucket_size)
    stash = Stash(config.stash_blocks)

    def bucket_for(level, leaf):
        return tree.bucket(tree.bucket_index(level, leaf))

    for addr, leaf in enumerate(leaves):
        if not reference_place_deepest(
            addr, leaf, config.levels, config.bucket_size, bucket_for
        ):
            stash.add(addr << 32 | leaf)
    return tree, stash


def reference_heap(leaves, levels, capacity):
    """Old Ring / Shi-tree populate over a bare heap of lists; returns
    ``(buckets, spilled addresses in order)``."""
    buckets = [[] for _ in range((1 << (levels + 1)) - 1)]

    def bucket_for(level, leaf):
        return buckets[(1 << level) - 1 + (leaf >> (levels - level))]

    spilled = []
    for addr, leaf in enumerate(leaves):
        if not reference_place_deepest(addr, leaf, levels, capacity, bucket_for):
            spilled.append(addr)
    return buckets, spilled


# ------------------------------------------------------------------ helpers
def contents(bucket):
    return [(word >> 32, word & 0xFFFFFFFF) for word in bucket]


def tree_image(tree):
    """Every bucket's contents, in heap order."""
    return [contents(tree.bucket(index)) for index in range(tree.num_buckets)]


def next_draws(rng):
    return [rng.getrandbits(32) for _ in range(3)]


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("num_leaves", [1, 2, 3, 64, 2**20])
def test_random_leaves_is_the_per_block_draw(num_leaves):
    """Non-powers of two (and every power of two: ``randrange`` asks for
    ``bit_length`` bits) exercise the redraw."""
    bulk, twin = DeterministicRng(97), DeterministicRng(97)
    leaves = bulk.random_leaves(num_leaves, 500)
    assert isinstance(leaves, array) and leaves.typecode == "q"
    assert list(leaves) == [twin.random_leaf(num_leaves) for _ in range(500)]
    assert next_draws(bulk) == next_draws(twin)
    assert list(bulk.random_leaves(num_leaves, 0)) == []
    assert next_draws(bulk) == next_draws(twin)


def test_random_leaves_rejects_an_empty_leaf_space():
    with pytest.raises(ValueError):
        DeterministicRng(1).random_leaves(0, 4)


@pytest.mark.parametrize("deferred", [False, True])
@pytest.mark.parametrize("treetop", [0, 2])
@pytest.mark.parametrize("utilization", [0.1, 0.7, 1.0])
@pytest.mark.parametrize("bucket_size", [1, 3, 4])
@pytest.mark.parametrize("levels", [1, 4, 11])
def test_path_oram_build_matches_reference(
    levels, bucket_size, utilization, treetop, deferred
):
    config = ORAMConfig(
        levels=levels,
        bucket_size=bucket_size,
        utilization=utilization,
        treetop_levels=treetop,
    )
    seed = 1000 * levels + 10 * bucket_size + treetop
    rng = DeterministicRng(seed)
    oram = PathORAM(config, rng, populate=not deferred)
    if deferred:
        oram.populate()

    twin = DeterministicRng(seed)
    twin_posmap = twin.fork(salt=POSMAP_SALT)
    leaves = reference_leaves(
        twin_posmap, config.num_leaves, max(1, config.num_blocks)
    )
    tree, stash = reference_populate(config, leaves)

    assert oram.position_map._leaves == leaves
    assert tree_image(oram.tree) == tree_image(tree)
    assert list(oram.stash.blocks) == list(stash.blocks)
    assert contents(oram.stash.blocks.values()) == contents(stash.blocks.values())
    assert oram.stash.max_occupancy == stash.max_occupancy
    if utilization == 1.0 and levels > 1:
        assert len(stash) > 0  # the over-full case really spills
    assert next_draws(oram.position_map._rng) == next_draws(twin_posmap)
    assert next_draws(rng) == next_draws(twin)


@pytest.mark.parametrize(
    "levels, z, num_blocks", [(3, 2, 40), (8, 4, 1500)]
)
def test_ring_oram_build_matches_reference(levels, z, num_blocks):
    rng, twin = DeterministicRng(levels), DeterministicRng(levels)
    ring = RingORAM(levels, num_blocks, z=z, rng=rng)
    leaves = reference_leaves(twin, 1 << levels, num_blocks)
    buckets, spilled = reference_heap(leaves, levels, z)
    assert ring._leaves == leaves
    assert tree_image(ring.tree) == [contents(b) for b in buckets]
    assert list(ring.stash) == spilled
    assert contents(ring.stash.values()) == [(a, leaves[a]) for a in spilled]
    assert next_draws(rng) == next_draws(twin)


@pytest.mark.parametrize(
    "levels, bucket_size, num_blocks", [(2, 1, 12), (7, 4, 900)]
)
def test_shi_tree_oram_build_matches_reference(levels, bucket_size, num_blocks):
    rng, twin = DeterministicRng(levels), DeterministicRng(levels)
    shi = ShiTreeORAM(levels, num_blocks, bucket_size=bucket_size, rng=rng)
    leaves = reference_leaves(twin, 1 << levels, num_blocks)
    buckets, spilled = reference_heap(leaves, levels, bucket_size)
    assert shi._leaves == leaves
    assert tree_image(shi.tree) == [contents(b) for b in buckets]
    assert list(shi.overflow) == spilled
    assert contents(shi.overflow.values()) == [(a, leaves[a]) for a in spilled]
    assert next_draws(rng) == next_draws(twin)
