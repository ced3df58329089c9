"""Generalization -- super blocks on a second tree ORAM (section 6.1).

"In general, all ORAM schemes should be able to take advantage of super
blocks as long as they have support for background eviction."  This
benchmark demonstrates the claim on the Shi et al. binary-tree ORAM:
pairing blocks halves both the access count and the bucket traffic of a
sequential workload, exactly as on Path ORAM.
"""

from repro.controller.mixins import merge_pairs
from repro.oram.tree_oram import ShiTreeORAM
from repro.utils.rng import DeterministicRng

from benchmarks.figutils import FAST, record_table

SWEEPS = 2 if FAST else 4
BLOCKS = 512
LEVELS = 8


def run_variant(paired):
    oram = ShiTreeORAM(levels=LEVELS, num_blocks=BLOCKS, rng=DeterministicRng(3))
    if paired:
        merge_pairs(oram, sbsize=2)
    oram.accesses = 0
    oram.bucket_touches = 0
    for _ in range(SWEEPS):
        addr = 0
        while addr < BLOCKS:
            if paired:
                oram.access([addr, addr + 1])
                addr += 2
            else:
                oram.access([addr])
                addr += 1
    oram.check_invariants()
    return oram.accesses, oram.bucket_touches


def run_figure():
    plain_accesses, plain_touches = run_variant(paired=False)
    pair_accesses, pair_touches = run_variant(paired=True)
    rows = [
        ["no super blocks", plain_accesses, plain_touches, 1.0],
        [
            "size-2 super blocks",
            pair_accesses,
            pair_touches,
            pair_touches / plain_touches,
        ],
    ]
    return rows, (plain_accesses, pair_accesses, plain_touches, pair_touches)


def test_generalization_tree_oram(benchmark):
    rows, (plain_acc, pair_acc, plain_touch, pair_touch) = benchmark.pedantic(
        run_figure, rounds=1, iterations=1
    )
    record_table(
        "generalization_tree_oram",
        "Section 6.1: super blocks on the Shi et al. tree ORAM (sequential scan)",
        ["variant", "oram_accesses", "bucket_touches", "norm_traffic"],
        rows,
    )
    # Pairing halves the access count and substantially cuts bucket traffic.
    assert pair_acc * 2 == plain_acc
    assert pair_touch < 0.7 * plain_touch
