"""Footprint guards: a tree ORAM's build allocates no object per block or
per bucket, and its run keeps nothing per leaf it visits.

A block is one int, ``addr << 32 | leaf``, and a tree starts as its DRAM
image, one flat array of ``Z`` slots per bucket (:mod:`repro.oram.tree`),
so what a build leaves for the cyclic collector to walk is a constant --
not one list per bucket, nor one object per block.  The first guard
builds Path, Ring and the Shi tree at 2**14 leaves, with twice as many
blocks as leaves, and counts the GC-tracked objects the build left alive.
The second materialises every bucket, then runs a Path ORAM over thousands
of distinct leaves and checks that the run leaves the traced bytes and
tracked objects where they were: a path is arithmetic, so no per-leaf
state may accumulate.  The third runs the same accesses on a fresh tree
and bounds what they add by the buckets they wrote, one list of at most
``Z`` words each.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.controller.scheme import build_scheme

LEVELS = 14
NUM_BLOCKS = 2 << LEVELS
#: the build's fixed objects (the scheme, its config, RNGs, position map,
#: stash and scratch lists) -- independent of the bucket and block counts;
#: a Path ORAM build leaves 54 of them here, 30 of them the write-back's
#: per-level scratch lists and their bound ``append``s
SLACK = 64


@pytest.mark.parametrize("name", ["path", "ring", "tree"])
def test_a_build_holds_one_tracked_object_per_bucket(name):
    """Now none per bucket: the image is one untracked array."""
    gc.collect()
    before = len(gc.get_objects())
    scheme = build_scheme(name, levels=LEVELS, num_blocks=NUM_BLOCKS, seed=3)
    gc.collect()
    grown = len(gc.get_objects()) - before
    buckets = scheme.tree.num_buckets
    assert scheme.tree.occupancy() + scheme.stash_occupancy == NUM_BLOCKS
    assert grown <= SLACK, (
        f"{name}: {grown} tracked objects for {buckets} buckets "
        f"and {NUM_BLOCKS} blocks"
    )


#: real accesses of the run guards: about 3,500 distinct leaves of 2**14
ACCESSES = 4_000
#: what a run over a materialised tree may add to the traced bytes: bucket
#: lists of other sizes and freshly written block words (measured -0.05 ..
#: +0.2 MB); a memo of one path vector per visited leaf would add about
#: 420 bytes per leaf, ~1.4 MB here
RUN_SLACK_BYTES = 512 << 10
#: ... and its GC-tracked objects (measured -2 .. +1)
RUN_SLACK_OBJECTS = 16


def run_accesses(scheme):
    """The run both guards drive; returns the distinct leaves it read."""
    leaves = scheme.position_map._leaves
    visited = set()
    for step in range(ACCESSES):
        addr = step * 7919 % NUM_BLOCKS  # a stride coprime to the blocks
        visited.add(leaves[addr])
        scheme.access([addr])
        scheme.drain_stash()
    return len(visited)


def measured_run(materialise):
    """``(distinct leaves, traced bytes grown, tracked objects grown,
    scheme)`` of one run, measured from after the build (and the
    materialisation, if asked)."""
    gc.collect()
    tracemalloc.start()
    try:
        scheme = build_scheme("path", levels=LEVELS, num_blocks=NUM_BLOCKS, seed=3)
        if materialise:
            for index in range(scheme.tree.num_buckets):
                scheme.tree.bucket(index)
        gc.collect()
        built, _peak = tracemalloc.get_traced_memory()
        objects = len(gc.get_objects())
        distinct = run_accesses(scheme)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - built
        grown_objects = len(gc.get_objects()) - objects
    finally:
        tracemalloc.stop()
    return distinct, grown, grown_objects, scheme


def test_a_run_holds_what_its_build_held():
    distinct, grown, grown_objects, _ = measured_run(materialise=True)
    assert distinct > 3_000
    assert grown <= RUN_SLACK_BYTES, (
        f"{ACCESSES} accesses over {distinct} leaves grew the traced heap by "
        f"{grown:,} bytes"
    )
    assert grown_objects <= RUN_SLACK_OBJECTS


def test_a_run_adds_at_most_one_list_per_bucket_written():
    distinct, grown, grown_objects, scheme = measured_run(materialise=False)
    tree = scheme.tree
    z = tree.bucket_size
    # The buckets the run wrote are the ones that hold a list now (a read
    # leaves the shared empty tuple, an untouched bucket ``None``).
    written = sum(bucket.__class__ is list for bucket in tree._buckets)
    per_bucket = sys.getsizeof([0] * z) + z * sys.getsizeof(1 << 62)
    assert distinct > 3_000
    assert written > 0
    assert grown <= written * per_bucket + RUN_SLACK_BYTES, (
        f"{ACCESSES} accesses wrote {written:,} buckets and grew the traced "
        f"heap by {grown:,} bytes"
    )
    assert grown_objects <= written + RUN_SLACK_OBJECTS
