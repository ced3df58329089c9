"""Differential tests: the tree's image-backed build and its reads vs
the builds and the all-lists tree they replaced.

The references below are earlier build paths, kept here (and only here)
as oracles:

* :func:`reference_leaves` draws one ``random_leaf`` per block through a
  generator -- the old ``PositionMap`` / ``RingORAM`` / ``ShiTreeORAM``
  constructor loops;
* :func:`reference_place_deepest` is the old per-block placement: one
  ``bucket_for(level, leaf)`` closure call per level, deepest first;
* :func:`reference_populate` is the old ``PathORAM.populate`` body over a
  fresh ``BinaryTree`` / ``Stash``;
* :func:`reference_list_heap` is the all-lists placement the image
  replaced: one list per bucket, each block appended to the deepest one
  on its path with room, walking up one shift per level.

A build must match the oracle in posmap leaves, bucket contents in list
order, stash order, ``max_occupancy`` and the state every RNG involved is
left in, with and without a pinned treetop and a deferred populate.  A run
must too: an image-backed Path, Ring or Shi tree, driven through random
accesses, dummy accesses and stash drains, stays bucket for bucket and
stash entry for stash entry equal to its twin whose every bucket started
as a list -- and so does a fault injector's bit-flip and replay schedule.
"""

import random
from array import array

import pytest

from repro.config import ORAMConfig
from repro.controller.scheme import build_scheme
from repro.faults.injector import FaultConfig, FaultInjector
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


def reference_list_heap(leaves, levels, capacity):
    """The all-lists placement: ``(bucket lists, spilled words in order)``."""
    buckets = [[] for _ in range((1 << (levels + 1)) - 1)]
    first_leaf_bucket = len(buckets) >> 1
    spilled = []
    for addr, leaf in enumerate(leaves):
        word = addr << 32 | leaf
        index = first_leaf_bucket + leaf
        while len(buckets[index]) >= capacity:
            if not index:
                spilled.append(word)
                break
            index = (index - 1) >> 1
        else:
            buckets[index].append(word)
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


# ------------------------------------------------------- image vs all lists
def on_chip(scheme):
    """The scheme's stash (Ring) or overflow area (Shi), or the Path
    ORAM's stash dict: address -> word, in insertion order."""
    held = getattr(scheme, "overflow", None)
    if held is None:
        held = scheme.stash
    return getattr(held, "blocks", held)


def all_lists_twin(name, levels, num_blocks, seed):
    """The scheme built as before the image: every bucket a list from the
    start, placed by :func:`reference_list_heap`.  Its tree never reads
    an image slot (no bucket is untouched)."""
    twin = build_scheme(name, levels=levels, num_blocks=num_blocks, seed=seed)
    tree = twin.tree
    leaves = twin.position_map._leaves if name == "path" else twin._leaves
    buckets, spilled = reference_list_heap(leaves, tree.levels, tree.bucket_size)
    assert list(on_chip(twin).values()) == spilled
    tree._buckets = buckets
    return twin


def stored(tree):
    """Every bucket's words in heap order, read without materialising."""
    return [list(tree.words(index)) for index in range(tree.num_buckets)]


@pytest.mark.parametrize(
    "name, levels, num_blocks", [("path", 8, 600), ("ring", 7, 500), ("tree", 7, 300)]
)
def test_an_image_backed_run_matches_the_all_lists_tree(name, levels, num_blocks):
    seed = 11
    fresh = build_scheme(name, levels=levels, num_blocks=num_blocks, seed=seed)
    twin = all_lists_twin(name, levels, num_blocks, seed)
    assert None in fresh.tree._buckets and None not in twin.tree._buckets
    assert stored(fresh.tree) == stored(twin.tree)
    driver = random.Random(5)
    for step in range(400):
        roll = driver.random()
        for scheme in (fresh, twin):
            if roll < 0.7:
                scheme.access([int(roll * 1e6) % num_blocks])
            elif roll < 0.85:
                scheme.dummy_access()
            else:
                scheme.drain_stash()
        if step % 50 == 49:
            assert stored(fresh.tree) == stored(twin.tree)
            assert list(on_chip(fresh).items()) == list(on_chip(twin).items())
    assert stored(fresh.tree) == stored(twin.tree)
    assert list(on_chip(fresh).items()) == list(on_chip(twin).items())
    # Not vacuous: the run read image slots and left some untouched.
    assert None in fresh.tree._buckets
    assert fresh.tree._buckets.count(None) < fresh.tree.num_buckets // 2
    fresh.check_invariants()


def test_a_fault_schedule_draws_the_same_words_on_a_fresh_tree():
    """Bit-flips and replays pick buckets and slots by what the path holds:
    reading an untouched bucket from its image must present the same
    words, in the same slots, as its materialised list."""
    config = ORAMConfig(levels=7, bucket_size=4, utilization=0.5)
    fresh = PathORAM(config, DeterministicRng(13))
    materialised = PathORAM(config, DeterministicRng(13))
    for index in range(materialised.tree.num_buckets):
        materialised.tree.bucket(index)
    for oram in (fresh, materialised):
        for addr in range(0, config.num_blocks, 3):
            oram.tree.payloads[addr] = bytes([addr % 251]) * 4
        for addr in range(40):
            oram.access([addr])
    faults = FaultConfig(seed=2, bitflip_rate=0.5, replay_rate=0.5)
    injectors = [FaultInjector(faults), FaultInjector(faults)]
    driver = random.Random(3)
    for _ in range(300):
        leaf = driver.randrange(config.num_leaves)
        for oram, injector in zip((fresh, materialised), injectors):
            injector.on_path_read(oram, leaf)
    first, second = injectors
    assert first.stats.bitflips > 20 and first.stats.replays > 5
    assert first.stats.as_dict() == second.stats.as_dict()
    assert first._snapshots == second._snapshots
    assert stored(fresh.tree) == stored(materialised.tree)
    assert fresh.tree.payloads == materialised.tree.payloads
    assert None in fresh.tree._buckets


@pytest.mark.parametrize("levels", [1, 2, 11])
def test_the_depth_table_is_the_per_leaf_formula(levels):
    """The write-back's xor -> depth table, built by doubling, is the
    per-leaf ``bit_length`` formula it replaced."""
    oram = PathORAM(ORAMConfig(levels=levels), DeterministicRng(1))
    assert oram._depth_of_xor == [
        levels if d == 0 else levels - d.bit_length() for d in range(1 << levels)
    ]
