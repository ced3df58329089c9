"""DBMS workload stand-ins: YCSB and TPC-C (Figure 8c).

The paper runs two OLTP benchmarks on the DBx1000-style DBMS (Yu et al.,
VLDB'14):

* **YCSB** -- key-value operations over one table; record selection is
  Zipfian (theta 0.6 in DBx1000's default), and each operation reads or
  updates a whole ~1 KB row, i.e. a run of consecutive 128 B blocks.  The
  row-sequential pattern gives super blocks a lot to harvest -- the paper
  reports 23.6% gain.
* **TPC-C** -- order-processing transactions touching many small rows
  across several tables (warehouse, district, customer, stock, ...), with
  heavy writes and little sequential structure -- the static scheme *loses*
  and the dynamic scheme gains only ~5%.

Both are generated as transaction streams, not raw mixtures, so the block
structure (row alignment, table interleaving) is faithful.
"""

from __future__ import annotations

from bisect import bisect_left
from math import log
from typing import Dict, List

from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng, zipf_cdf
from repro.workloads.base import WorkloadProfile

#: 1 KB rows = 8 x 128 B blocks, aligned (YCSB's default row size).
YCSB_ROW_BLOCKS = 8


def ycsb_trace(
    num_records: int = 4096,
    operations: int = 8_000,
    read_fraction: float = 0.9,
    zipf_theta: float = 0.6,
    gap_mean: float = 60.0,
    row_blocks: int = YCSB_ROW_BLOCKS,
    index_touches: int = 1,
    seed: int = 21,
) -> Trace:
    """YCSB-style key-value operations: index lookup + whole-row scan.

    Each operation walks ``index_touches`` B-tree index blocks (the upper
    levels are hot and cache; the leaf level is effectively random -- no
    pair locality, which is what hurts the *static* scheme here) and then
    streams the Zipf-selected ~1 KB row's consecutive blocks (the locality
    PrORAM harvests).
    """
    rng = DeterministicRng(seed)
    data_blocks = num_records * row_blocks
    index_blocks = max(2, num_records * 2)
    footprint = data_blocks + index_blocks
    trace = Trace(name="YCSB", footprint_blocks=footprint)
    # The draws are those of ``rng.zipf`` / ``rng.random`` / ``rng.randint``
    # / ``rng.expovariate_int`` written out over the bound generator, as in
    # ``locality_mix_trace``: ``zipf`` bisects the cached CDF with one
    # ``random()``, ``randint(0, n - 1)`` is ``_randbelow(n)`` and
    # ``Random.expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``, so
    # the trace is bit-identical to the wrapper calls' without their frames.
    random = rng.random_unit
    randbelow = rng.randbelow
    cdf = zipf_cdf(num_records, zipf_theta)
    lambd = 1.0 / gap_mean if gap_mean > 0.0 else 0.0
    lookup_lambd = 1.0 / (gap_mean * 3) if gap_mean > 0.0 else 0.0
    append = trace.entries.append
    for _ in range(operations):
        record = bisect_left(cdf, random())
        is_write = 0 if random() < read_fraction else 1
        # Index walk: leaf-level blocks are scattered across the index.
        for _level in range(index_touches):
            index_block = data_blocks + randbelow(index_blocks)
            gap = int(-log(1.0 - random()) / lambd) if lambd else 0
            append((gap, index_block, 0))
        # Row scan: the first touch pays the lookup, the rest stream.
        base = record * row_blocks
        gap = int(-log(1.0 - random()) / lookup_lambd) if lookup_lambd else 0
        append((gap, base, is_write))
        for offset in range(1, row_blocks):
            gap = int(-log(1.0 - random()) / lambd) if lambd else 0
            append((gap, base + offset, is_write))
    return trace


#: TPC-C table shapes (blocks per row, rows), loosely after DBx1000 scale 1.
#: Row sizes are deliberately odd (real heap files do not align rows to
#: power-of-two block groups), so the static scheme's aligned pairs straddle
#: row boundaries and prefetch mostly-unrelated data -- the reason the paper
#: reports static super blocks *losing* on TPC-C.
_TPCC_TABLES = {
    "warehouse": (3, 64),
    "district": (3, 640),
    "customer": (3, 6_144),
    "stock": (3, 6_400),
    "item": (1, 2_048),
    "order": (1, 4_096),
    "orderline": (1, 8_192),
}


def tpcc_trace(
    transactions: int = 2_500,
    gap_mean: float = 300.0,
    seed: int = 22,
) -> Trace:
    """TPC-C-style transactions: many small, scattered row touches.

    A NewOrder-like transaction reads warehouse/district/customer rows,
    then touches ~10 random items and stock rows and appends order lines; a
    Payment-like transaction updates warehouse/district/customer.  Rows are
    small (1-6 blocks) and spread across tables, so consecutive blocks
    rarely belong together -- the anti-YCSB.
    """
    rng = DeterministicRng(seed)
    # Lay the tables out consecutively, rows aligned to their block counts.
    base: Dict[str, int] = {}
    cursor = 0
    for table, (blocks, rows) in _TPCC_TABLES.items():
        base[table] = cursor
        cursor += blocks * rows
    footprint = cursor
    trace = Trace(name="TPCC", footprint_blocks=footprint)

    def touch(table: str, row: int, write: bool, first_blocks: int = 0) -> None:
        blocks, rows = _TPCC_TABLES[table]
        start = base[table] + (row % rows) * blocks
        count = first_blocks if first_blocks else blocks
        for offset in range(min(count, blocks)):
            trace.entries.append(
                (rng.expovariate_int(gap_mean), start + offset, 1 if write else 0)
            )

    for _ in range(transactions):
        if rng.random() < 0.5:
            # NewOrder: read the hierarchy, touch items/stock, insert lines.
            touch("warehouse", rng.randint(0, 63), write=False)
            touch("district", rng.randint(0, 639), write=True)
            touch("customer", rng.zipf(6_144, 0.4), write=False)
            for _item in range(10):
                touch("item", rng.randint(0, 2_047), write=False)
                touch("stock", rng.randint(0, 6_399), write=True)
                touch("orderline", rng.randint(0, 8_191), write=True)
            touch("order", rng.randint(0, 4_095), write=True)
        else:
            # Payment: update the hierarchy, read the customer.
            touch("warehouse", rng.randint(0, 63), write=True)
            touch("district", rng.randint(0, 639), write=True)
            touch("customer", rng.zipf(6_144, 0.4), write=True)
    return trace


#: Profile-style descriptors so the harness can treat DBMS uniformly.
DBMS_PROFILES: List[WorkloadProfile] = [
    WorkloadProfile(
        name="YCSB",
        suite="dbms",
        footprint_blocks=4096 * YCSB_ROW_BLOCKS + 8192,
        gap_mean=6.0,
        seq_fraction=0.85,
        run_len_mean=float(YCSB_ROW_BLOCKS),
        write_fraction=0.1,
        zipf_theta=0.6,
        memory_intensive=True,
    ),
    WorkloadProfile(
        name="TPCC",
        suite="dbms",
        footprint_blocks=54_080,
        gap_mean=8.0,
        seq_fraction=0.25,
        run_len_mean=2.0,
        write_fraction=0.55,
        zipf_theta=0.4,
        memory_intensive=False,
    ),
]


def dbms_trace(name: str, accesses: int = 0, seed: int = 23) -> Trace:
    """Generate the named DBMS trace ('YCSB' or 'TPCC').

    ``accesses`` approximately bounds the trace length (0 = default size).
    """
    if name == "YCSB":
        operations = max(1, accesses // YCSB_ROW_BLOCKS) if accesses else 8_000
        return ycsb_trace(operations=operations, seed=seed)
    if name == "TPCC":
        # A transaction averages ~25 block touches.
        transactions = max(1, accesses // 25) if accesses else 2_500
        return tpcc_trace(transactions=transactions, seed=seed)
    raise ValueError(f"unknown DBMS workload '{name}'")
