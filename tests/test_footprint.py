"""Footprint guard: a tree ORAM's build allocates no object per block.

A block is one int, ``addr << 32 | leaf`` (:mod:`repro.oram.tree`), so
what a build leaves for the cyclic collector to walk is one list per
bucket plus a constant -- not one object per block.  The guard builds
Path, Ring and the Shi tree at 2**14 leaves, with twice as many blocks as
leaves, and counts the GC-tracked objects the build left alive.
"""

import gc

import pytest

from repro.controller.scheme import build_scheme

LEVELS = 14
NUM_BLOCKS = 2 << LEVELS
#: the build's fixed objects (the scheme, its config, RNGs, position map,
#: stash and scratch lists) -- independent of the tree size; a Path ORAM
#: build leaves 23 of them
SLACK = 64


@pytest.mark.parametrize("name", ["path", "ring", "tree"])
def test_a_build_holds_one_tracked_object_per_bucket(name):
    gc.collect()
    before = len(gc.get_objects())
    scheme = build_scheme(name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=3)
    gc.collect()
    grown = len(gc.get_objects()) - before
    buckets = scheme.tree.num_buckets
    assert scheme.tree.occupancy() + scheme.stash_occupancy == NUM_BLOCKS
    assert grown <= buckets + SLACK, (
        f"{name}: {grown} tracked objects for {buckets} buckets "
        f"and {NUM_BLOCKS} blocks"
    )
