"""Footprint guards: a tree ORAM's build allocates no object per block,
and its run keeps nothing per leaf it visits.

A block is one int, ``addr << 32 | leaf`` (:mod:`repro.oram.tree`), so
what a build leaves for the cyclic collector to walk is one list per
bucket plus a constant -- not one object per block.  The first guard
builds Path, Ring and the Shi tree at 2**14 leaves, with twice as many
blocks as leaves, and counts the GC-tracked objects the build left alive.
The second runs a Path ORAM over thousands of distinct leaves and checks
that the run leaves the traced bytes and tracked objects where the build
left them: a path is arithmetic, so no per-leaf state may accumulate.
"""

import gc
import tracemalloc

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


#: real accesses of the run guard: about 3,500 distinct leaves of 2**14
ACCESSES = 4_000
#: what a run may add to the build's traced bytes: bucket lists of other
#: sizes and freshly written block words (measured -0.05 .. +0.2 MB); a
#: memo of one path vector per visited leaf would add about 420 bytes per
#: leaf, ~1.4 MB here
RUN_SLACK_BYTES = 512 << 10
#: ... and its GC-tracked objects (measured -2 .. +1)
RUN_SLACK_OBJECTS = 16


def test_a_run_holds_what_its_build_held():
    gc.collect()
    tracemalloc.start()
    try:
        scheme = build_scheme("path", levels=LEVELS, num_blocks=NUM_BLOCKS, seed=3)
        gc.collect()
        built, _peak = tracemalloc.get_traced_memory()
        objects = len(gc.get_objects())
        leaves = scheme.position_map._leaves
        visited = set()
        for step in range(ACCESSES):
            addr = step * 7919 % NUM_BLOCKS  # a stride coprime to the blocks
            visited.add(leaves[addr])
            scheme.access([addr])
            scheme.drain_stash()
        distinct = len(visited)
        del visited
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - built
        grown_objects = len(gc.get_objects()) - objects
    finally:
        tracemalloc.stop()
    assert distinct > 3_000
    assert grown <= RUN_SLACK_BYTES, (
        f"{ACCESSES} accesses over {distinct} leaves grew the traced heap by "
        f"{grown:,} bytes (the build held {built:,})"
    )
    assert grown_objects <= RUN_SLACK_OBJECTS
