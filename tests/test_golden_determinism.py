"""Golden-output determinism tests for the simulation hot path.

The hot-path code (stash eviction, tree indexing, position map scans) is
performance-critical and gets refactored; these tests pin the *simulated
outcome* so an optimization that changes behaviour -- a different block
placement, a perturbed ``DeterministicRng`` call order, an altered counter
update -- fails loudly instead of silently skewing every figure.

The golden snapshots live in ``tests/data/``: ``golden_dyn_locality80.json``
(flat interconnect, no treetop) and ``golden_dyn_channel4_treetop4.json``
(the memory side: channel model, 4 channels, 4-level treetop; a read and a
write trace, ``extra`` included so every interconnect counter is pinned).
Regenerate them (only after an *intentional* behaviour change, e.g. a bugfix)
with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest -s tests/test_golden_determinism.py

which prints, per snapshot, every field it is about to move as ``name: old →
new`` (``-s`` shows it) before overwriting; paste that list into the PR.

A property test additionally drives randomized merge -> break -> merge
histories through the dynamic scheme and asserts the ORAM's structural
invariants after every phase.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import experiment_config
from repro.config import ORAMConfig
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.core.thresholds import StaticThresholdPolicy
from repro.oram.path_oram import PathORAM
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads import tpcc_trace
from repro.workloads.synthetic import locality_mix_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_dyn_locality80.json"
GOLDEN_MEMORY_PATH = Path(__file__).parent / "data" / "golden_dyn_channel4_treetop4.json"

#: Float-valued SimResult fields compared approximately (everything else
#: must match bit-for-bit).
FLOAT_FIELDS = {"posmap_cache_hit_rate"}


def golden_run():
    """The pinned scenario: PrORAM (dyn) on the 80%-locality synthetic mix."""
    # 8000 accesses is the smallest run that exercises merges *and* breaks
    # (8 merges, 1 break at this seed) while staying fast enough for CI.
    trace = locality_mix_trace(0.8, accesses=8000)
    system = SecureSystem.build("dyn", trace.footprint_blocks, experiment_config())
    result = system.run(trace)
    system.backend.oram.check_invariants()
    return result


def golden_memory_runs():
    """The memory-side scenario: channel interconnect + treetop cache.

    The read trace warms the prefetcher (348 merges); the TPC-C trace
    drives the write-back entry (740 dirty evictions).

    The pinned cycles, by arithmetic (ganged channels, DESIGN.md section
    11): 26 - 4 = 22 off-chip bucket-levels x 1,024 B over 4 x 16 B/cycle
    is a 352-cycle burst, T = 100 + 352 = 452, and every path is 11 tiles
    on each of the 4 channels (44 array accesses).  Read: 5,335 paths at
    T and 88 whose first tile is a 50-cycle row hit (402) = 2,446,796
    streamed cycles, stream efficiency 5,423 x 452 / 2,446,796 = 1.0018.
    Write: 5,165 at T, 130 at 402, 111 at 500 and 4 at 600 (one bank
    serving 5 or 6 of the 11 tiles) = 2,444,740.  ``busy_cycles`` moves
    by exactly the streamed-cycle saving against the tile-per-channel
    layout (3,233,250 - 2,446,796 = 786,454 and 3,419,182 - 2,444,740 =
    974,442), ``cycles`` by the same on the read trace and by 963,054 on
    the write trace (the rest was already hidden behind core compute); no
    functional field moves.
    """
    config = experiment_config(treetop_levels=4)
    config = dataclasses.replace(
        config, dram=dataclasses.replace(config.dram, model="channel", num_channels=4)
    )
    traces = {
        "read": locality_mix_trace(0.8, footprint_blocks=5120, accesses=6000),
        "write": tpcc_trace(transactions=150),
    }
    results = {}
    for name, trace in traces.items():
        system = SecureSystem.build("dyn", trace.footprint_blocks, config)
        results[name] = dataclasses.asdict(system.run(trace))
        system.backend.oram.check_invariants()
    return results


def flattened(snapshot, prefix=""):
    """``{"read": {"extra": {"x": 1}}}`` -> ``{"read.extra.x": 1}``."""
    flat = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            flat.update(flattened(value, f"{prefix}{name}."))
        else:
            flat[f"{prefix}{name}"] = value
    return flat


def regenerate(path, actual):
    """``REPRO_UPDATE_GOLDEN``: say what moves, then overwrite and skip."""
    old = flattened(json.loads(path.read_text())) if path.exists() else {}
    new = flattened(actual)
    moved = [name for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
    print(f"\n{path.name}: {len(moved)} field(s) move")
    for name in moved:
        print(f"  {name}: {old.get(name, '(absent)')} → {new.get(name, '(absent)')}")
    path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
    pytest.skip(f"golden snapshot regenerated at {path}")


def result_to_dict(result):
    data = dataclasses.asdict(result)
    data.pop("extra", None)
    return data


def assert_matches_snapshot(actual, expected, where=""):
    """Field-by-field comparison so a drift names the field that moved."""
    assert set(actual) == set(expected), f"{where}SimResult field set changed"
    for field, want in expected.items():
        got = actual[field]
        if field in FLOAT_FIELDS:
            assert got == pytest.approx(want, rel=1e-12), field
        else:
            assert got == want, (
                f"{where}SimResult.{field} drifted from golden snapshot: "
                f"{got!r} != {want!r}"
            )


class TestGoldenDeterminism:
    def test_simresult_matches_snapshot(self):
        actual = result_to_dict(golden_run())
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            regenerate(GOLDEN_PATH, actual)
        assert GOLDEN_PATH.exists(), (
            f"missing golden snapshot {GOLDEN_PATH}; regenerate with "
            "REPRO_UPDATE_GOLDEN=1"
        )
        assert_matches_snapshot(actual, json.loads(GOLDEN_PATH.read_text()))

    def test_back_to_back_runs_identical(self):
        first = result_to_dict(golden_run())
        second = result_to_dict(golden_run())
        assert first == second

    def test_memory_side_matches_snapshot(self):
        """Channel model + treetop: the contract for memory-side refactors."""
        actual = golden_memory_runs()
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            regenerate(GOLDEN_MEMORY_PATH, actual)
        expected = json.loads(GOLDEN_MEMORY_PATH.read_text())
        assert set(actual) == set(expected)
        for name, want in expected.items():
            assert_matches_snapshot(actual[name], want, where=f"{name}: ")


# --------------------------------------------------------------------------
# Property test: invariants hold through randomized merge/break churn.
# --------------------------------------------------------------------------
class ChurnDriver:
    """Drives forced merge -> break -> merge cycles through the full stack."""

    def __init__(self, seed: int, max_sbsize: int = 4):
        config = ORAMConfig(levels=9, bucket_size=4, stash_blocks=60, utilization=0.5)
        self.oram = PathORAM(config, DeterministicRng(seed), populate=False)
        self.llc = set()
        self.scheme = DynamicSuperBlockScheme(
            max_sbsize=max_sbsize, policy=StaticThresholdPolicy()
        )
        self.scheme.attach(self.oram, lambda addr: addr in self.llc)
        self.scheme.initialize()
        self.oram.populate()
        self.n = self.oram.position_map.num_blocks

    def miss(self, addr):
        members = self.scheme.members_for(addr)
        blocks = self.oram.begin_access(members)
        fetched = {m: blocks[m] for m in members if m not in self.llc}
        fills = self.scheme.process_fetch(addr, members, fetched)
        self.oram.finish_access()
        self.llc.update(fills)
        self.oram.drain_stash()

    def touch(self, addr):
        addr %= self.n
        if addr in self.llc:
            self.scheme.on_llc_hit(addr)
        else:
            self.miss(addr)

    def evict_all(self):
        for addr in sorted(self.llc):
            self.scheme.on_llc_evict(addr)
        self.llc.clear()


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    bases=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=8),
)
def test_merge_break_merge_churn_preserves_invariants(seed, bases):
    driver = ChurnDriver(seed)
    for raw in bases:
        base = (raw % driver.n) & ~3  # aligned 4-group
        # Merge phase: streaming over the group trains the merge counters.
        for sweep in range(3):
            for offset in range(4):
                driver.touch(base + offset)
        driver.oram.check_invariants()
        # Break phase: evict everything unused, then re-touch only one
        # member so prefetch evidence turns negative and breaks fire.
        driver.evict_all()
        for _ in range(3):
            driver.touch(base)
            driver.evict_all()
        driver.oram.check_invariants()
        # Re-merge phase: stream again after the breaks.
        for offset in range(4):
            driver.touch(base + offset)
        driver.oram.check_invariants()
    driver.oram.check_invariants()
