"""Unit tests for the workload/trace generators."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads.base import MixtureWorkload, WorkloadProfile, trace_for
from repro.workloads.dbms import DBMS_PROFILES, dbms_trace, tpcc_trace, ycsb_trace
from repro.workloads.spec06 import SPEC06_PROFILES
from repro.workloads.splash2 import SPLASH2_MISS_RATE_SET, SPLASH2_PROFILES
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import (
    locality_mix_trace,
    phase_change_trace,
    sequential_trace,
    uniform_random_trace,
)
from tests.test_multicore import load_perf_workloads

INPUTS_LOCK = Path(__file__).parents[1] / "benchmarks" / "perf" / "inputs.lock.json"


def sequential_fraction(trace):
    """Fraction of accesses that continue an ascending run."""
    seq = sum(
        1
        for prev, cur in zip(trace.entries, trace.entries[1:])
        if cur[1] == prev[1] + 1
    )
    return seq / max(1, len(trace) - 1)


class TestProfiles:
    def test_paper_benchmark_rosters(self):
        assert len(SPLASH2_PROFILES) == 14  # Figure 8a
        assert len(SPEC06_PROFILES) == 10   # Figure 8b
        assert len(DBMS_PROFILES) == 2      # Figure 8c

    def test_figure9_set_excludes_water(self):
        assert "water_ns" not in SPLASH2_MISS_RATE_SET
        assert "water_s" not in SPLASH2_MISS_RATE_SET
        assert len(SPLASH2_MISS_RATE_SET) == 12

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", "s", footprint_blocks=4, gap_mean=1, seq_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadProfile("x", "s", footprint_blocks=1, gap_mean=1, seq_fraction=0.5)

    def test_scaled(self):
        p = SPLASH2_PROFILES[0].scaled(123)
        assert p.accesses == 123
        assert p.name == SPLASH2_PROFILES[0].name


class TestMixtureGenerator:
    def test_respects_footprint_and_length(self):
        p = WorkloadProfile("t", "s", footprint_blocks=100, gap_mean=5, seq_fraction=0.5)
        trace = trace_for(p, accesses=500)
        assert len(trace) == 500
        assert all(0 <= e[1] < 100 for e in trace.entries)

    def test_seq_fraction_controls_runs(self):
        low = WorkloadProfile("lo", "s", footprint_blocks=4096, gap_mean=1, seq_fraction=0.05)
        high = WorkloadProfile("hi", "s", footprint_blocks=4096, gap_mean=1, seq_fraction=0.9, run_len_mean=8)
        assert sequential_fraction(trace_for(high, 3000)) > 3 * sequential_fraction(
            trace_for(low, 3000)
        )

    def test_write_fraction(self):
        p = WorkloadProfile(
            "w", "s", footprint_blocks=64, gap_mean=1, seq_fraction=0.0, write_fraction=0.5
        )
        trace = trace_for(p, accesses=3000)
        assert 0.4 < trace.write_fraction < 0.6

    def test_deterministic(self):
        p = SPLASH2_PROFILES[5]
        a = MixtureWorkload(p, seed=1).generate(300)
        b = MixtureWorkload(p, seed=1).generate(300)
        assert a.entries == b.entries

    def test_named_trace_identical_across_interpreters(self):
        """Regression: the per-profile RNG fork used ``hash(name)``, which
        is salted per process, so named traces differed from run to run."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.workloads.base import trace_for;"
            "from repro.workloads.splash2 import SPLASH2_BY_NAME;"
            "print(trace_for(SPLASH2_BY_NAME['ocean_c'], accesses=400).entries)"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(outputs) == 1

    def test_seed_changes_trace(self):
        p = SPLASH2_PROFILES[5]
        a = MixtureWorkload(p, seed=1).generate(300)
        b = MixtureWorkload(p, seed=2).generate(300)
        assert a.entries != b.entries


class TestSynthetic:
    def test_locality_extremes(self):
        seq = locality_mix_trace(1.0, accesses=2000, footprint_blocks=1024)
        rand = locality_mix_trace(0.0, accesses=2000, footprint_blocks=1024)
        assert sequential_fraction(seq) > 0.9
        assert sequential_fraction(rand) < 0.05

    def test_locality_partitions_address_space(self):
        trace = locality_mix_trace(0.5, accesses=5000, footprint_blocks=1000)
        seq_region = [a for _, a, _ in trace.entries if a < 500]
        rand_region = [a for _, a, _ in trace.entries if a >= 500]
        assert seq_region and rand_region

    def test_locality_validation(self):
        with pytest.raises(ValueError):
            locality_mix_trace(1.5)

    def test_phase_change_alternates_halves(self):
        trace = phase_change_trace(num_phases=2, accesses=4000, footprint_blocks=1000)
        half = len(trace) // 2
        first = trace.entries[:half]
        second = trace.entries[half:]

        def seq_in(entries, lo, hi):
            pairs = zip(entries, entries[1:])
            return sum(1 for p, c in pairs if c[1] == p[1] + 1 and lo <= c[1] < hi)

        # Phase 1 scans the low half; phase 2 scans the high half.
        assert seq_in(first, 0, 500) > seq_in(first, 500, 1000)
        assert seq_in(second, 500, 1000) > seq_in(second, 0, 500)

    def test_pure_generators(self):
        seq = sequential_trace(footprint_blocks=100, accesses=250)
        assert [e[1] for e in seq.entries[:5]] == [0, 1, 2, 3, 4]
        rand = uniform_random_trace(footprint_blocks=100, accesses=250)
        assert len(set(e[1] for e in rand.entries)) > 50


class TestGeneratorContracts:
    """Every generator honors its length and footprint exactly."""

    GENERATORS = [
        lambda fp, n: locality_mix_trace(0.37, footprint_blocks=fp, accesses=n),
        lambda fp, n: locality_mix_trace(0.0, footprint_blocks=fp, accesses=n),
        lambda fp, n: locality_mix_trace(1.0, footprint_blocks=fp, accesses=n),
        lambda fp, n: phase_change_trace(
            num_phases=7, footprint_blocks=fp, accesses=n
        ),
        lambda fp, n: sequential_trace(footprint_blocks=fp, accesses=n),
        lambda fp, n: uniform_random_trace(footprint_blocks=fp, accesses=n),
    ]

    @pytest.mark.parametrize("gen_index", range(len(GENERATORS)))
    @pytest.mark.parametrize("footprint,accesses", [
        (16, 1), (100, 97), (1024, 1000), (10, 333),
    ])
    def test_exact_length_and_footprint(self, gen_index, footprint, accesses):
        trace = self.GENERATORS[gen_index](footprint, accesses)
        assert len(trace) == accesses
        assert all(0 <= addr < footprint for _, addr, _ in trace.entries)

    @pytest.mark.parametrize("num_phases", [1, 3, 7, 9, 13])
    def test_phase_change_distributes_remainder(self, num_phases):
        # 1000 % 7 == 6 etc. -- the remainder used to be silently dropped.
        trace = phase_change_trace(
            num_phases=num_phases, footprint_blocks=64, accesses=1000
        )
        assert len(trace) == 1000

    def test_tiny_footprint_locality_not_degenerate(self):
        # int(10 * 0.05) == 0 used to collapse 5%-locality to pure random;
        # the sequential region must survive as >= 1 block.
        trace = locality_mix_trace(
            0.05, footprint_blocks=10, accesses=4000, seed=5
        )
        hits_block0 = sum(1 for _, addr, _ in trace.entries if addr == 0)
        # block 0 is the whole sequential region: it gets the ~5% of
        # accesses routed there *plus* nothing from the random region,
        # which draws from blocks 1..9 only.
        assert hits_block0 == pytest.approx(0.05 * 4000, rel=0.4)
        random_region = [addr for _, addr, _ in trace.entries if addr != 0]
        assert min(random_region) >= 1

    def test_full_locality_on_one_block(self):
        trace = locality_mix_trace(1.0, footprint_blocks=1, accesses=50)
        assert len(trace) == 50
        assert all(addr == 0 for _, addr, _ in trace.entries)


def wrapper_locality_mix(locality, footprint_blocks, accesses, gap_mean, seed):
    """``locality_mix_trace``'s entries drawn through the ``DeterministicRng``
    wrapper calls, one per draw (the generator writes them out inline)."""
    rng = DeterministicRng(seed)
    seq_blocks = int(footprint_blocks * locality)
    if locality > 0.0 and seq_blocks == 0:
        seq_blocks = 1
    entries = []
    pointer = 0
    for _ in range(accesses):
        gap = rng.expovariate_int(gap_mean)
        if seq_blocks > 0 and rng.random() < locality:
            addr = pointer
            pointer = (pointer + 1) % seq_blocks
        elif seq_blocks >= footprint_blocks:
            addr = rng.randint(0, footprint_blocks - 1)
        else:
            addr = rng.randint(seq_blocks, footprint_blocks - 1)
        entries.append((gap, addr, 0))
    return entries


class TestLocalityMixDraws:
    """The inline draws of ``locality_mix_trace`` are the wrapper calls'."""

    @pytest.mark.parametrize("locality,footprint,gap_mean,seed", [
        (0.8, 16_384, 4.0, 1),
        (0.0, 1_000, 4.0, 2),
        (1.0, 64, 200.0, 3),
        (0.05, 10, 2.5, 5),
        (0.37, 13, 0.0, 7),
        (1.0, 1, 4.0, 11),
    ])
    def test_same_entries_as_the_wrapper_draws(self, locality, footprint, gap_mean, seed):
        trace = locality_mix_trace(
            locality, footprint_blocks=footprint, accesses=3_000,
            gap_mean=gap_mean, seed=seed,
        )
        assert trace.entries == wrapper_locality_mix(
            locality, footprint, 3_000, gap_mean, seed
        )

    def test_benchmark_trace_matches_the_inputs_lock(self, monkeypatch, tmp_path):
        """Every full-length input digest ``benchmarks/perf/inputs.lock.json``
        pins (read only) at its seed: ``trace_dram_bypass``'s trace hashed
        here, then each workload's ``input_digests(make_inputs(seed))`` --
        the three trace workloads' traces, ``serve_zipf_open``'s trace and
        arrival schedule, ``parallel_durable_2w``'s traces and request
        stream.  A drift in ``repr(trace.entries)`` fails here before the
        benchmark's seed-1 run exits on it."""
        lock = json.loads(INPUTS_LOCK.read_text())
        assert lock["seed"] == 1
        trace = locality_mix_trace(0.8, accesses=200_000, seed=1)
        digest = hashlib.sha256(repr(trace.entries).encode()).hexdigest()
        assert digest == lock["full"]["trace_dram_bypass"]["trace"]
        workloads = load_perf_workloads(monkeypatch).build_workloads(str(tmp_path))
        assert set(workloads) == set(lock["full"])
        for name, workload in workloads.items():
            inputs = workload.make_inputs(lock["seed"], False)
            assert workload.input_digests(inputs) == lock["full"][name], name


class TestDBMS:
    def test_ycsb_rows_are_aligned_runs(self):
        trace = ycsb_trace(num_records=64, operations=100)
        # Row scans appear as ascending runs of 8 starting at multiples of 8.
        runs = 0
        entries = trace.entries
        i = 0
        while i < len(entries) - 7:
            base = entries[i][1]
            if base % 8 == 0 and all(
                entries[i + k][1] == base + k for k in range(8)
            ):
                runs += 1
                i += 8
            else:
                i += 1
        assert runs >= 90  # almost every operation

    def test_ycsb_contains_index_traffic(self):
        trace = ycsb_trace(num_records=64, operations=50, row_blocks=8, index_touches=2)
        data_blocks = 64 * 8
        index_hits = [e for e in trace.entries if e[1] >= data_blocks]
        assert len(index_hits) == 100  # 2 per operation

    def test_ycsb_zipf_skews_rows(self):
        trace = ycsb_trace(num_records=256, operations=400, zipf_theta=0.9)
        from collections import Counter

        rows = Counter(e[1] // 8 for e in trace.entries if e[1] < 256 * 8)
        hottest = rows.most_common(1)[0][1]
        assert hottest > 3 * (sum(rows.values()) / len(rows))

    def test_tpcc_write_heavy(self):
        trace = tpcc_trace(transactions=200)
        assert trace.write_fraction > 0.4

    def test_tpcc_within_footprint(self):
        trace = tpcc_trace(transactions=100)
        assert all(0 <= e[1] < trace.footprint_blocks for e in trace.entries)

    def test_dbms_trace_dispatch(self):
        assert dbms_trace("YCSB", accesses=800).name == "YCSB"
        assert dbms_trace("TPCC", accesses=800).name == "TPCC"
        with pytest.raises(ValueError):
            dbms_trace("NOPE")

    def test_dbms_trace_length_scales(self):
        short = dbms_trace("YCSB", accesses=800)
        long = dbms_trace("YCSB", accesses=8000)
        assert len(long) > 5 * len(short)
