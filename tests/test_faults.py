"""Tests for the fault-injection harness and the self-healing access path.

Covers the injector (schedule determinism, every fault class), the fsck
auditor (planted inconsistencies of each kind), the resilient KV store
(mini-soak under mixed faults with shadow verification, recovery
escalation, checkpoint durability), and the timing backend's retry /
degradation wiring (including bit-identical behaviour with faults off).
"""

import dataclasses
import re

import pytest

from repro.config import ORAMConfig, SystemConfig
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FsckError,
    RecoveryError,
    ResilientKVStore,
    TransientReadError,
    assert_consistent,
    run_fsck,
)
from repro.faults.resilient import MAX_RETRIES, backoff_cycles
from repro.oram.checkpoint import load_oram
from repro.oram.integrity import IntegrityViolationError, VerifiedPathORAM
from repro.oram.kv_store import ObliviousKVStore
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.tree_oram import ShiTreeORAM
from repro.parallel.protocol import ShardSpec
from repro.parallel.worker import build_worker_backend
from repro.sim.system import SecureSystem
from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import locality_mix_trace


def small_config(**overrides):
    defaults = dict(levels=6, bucket_size=4, stash_blocks=40, utilization=0.5)
    defaults.update(overrides)
    return ORAMConfig(**defaults)


MIXED_FAULTS = FaultConfig(
    seed=11,
    bitflip_rate=0.01,
    replay_rate=0.005,
    transient_rate=0.02,
    delay_rate=0.01,
    start_after=20,
)


def run_workload(store, ops, seed=99, shadow=None):
    """Mixed put/get workload verified against a shadow dict as it runs."""
    shadow = {} if shadow is None else shadow
    rng = DeterministicRng(seed)
    for i in range(ops):
        key = rng.randbelow(store.capacity)
        if rng.randbelow(100) < 60:
            value = bytes([i % 251]) * (1 + rng.randbelow(8))
            store.put(key, value)
            shadow[key] = value
        else:
            assert store.get(key) == shadow.get(key)
    return shadow


# =========================================================== injector
class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(bitflip_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(transient_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(delay_cycles=-1)

    def test_any_enabled(self):
        assert not FaultConfig().any_enabled
        assert FaultConfig(delay_rate=0.5).any_enabled


class TestFaultInjector:
    def test_transient_raises_and_counts(self):
        injector = FaultInjector(FaultConfig(transient_rate=1.0))
        with pytest.raises(TransientReadError):
            injector.on_memory_access()
        assert injector.stats.transients == 1
        assert injector.stats.total_injected == 1

    def test_delay_returns_cycles(self):
        injector = FaultInjector(FaultConfig(delay_rate=1.0, delay_cycles=77))
        assert injector.on_memory_access() == 77
        assert injector.stats.delay_cycles == 77

    def test_paused_suspends_injection(self):
        injector = FaultInjector(FaultConfig(transient_rate=1.0))
        with injector.paused():
            assert injector.on_memory_access() == 0
        assert injector.stats.transients == 0
        with pytest.raises(TransientReadError):
            injector.on_memory_access()

    def test_start_after_grace_period(self):
        injector = FaultInjector(FaultConfig(transient_rate=1.0, start_after=3))
        for _ in range(3):
            assert injector.on_memory_access() == 0
        with pytest.raises(TransientReadError):
            injector.on_memory_access()

    def test_schedule_is_deterministic(self):
        def schedule(seed):
            injector = FaultInjector(
                FaultConfig(seed=seed, transient_rate=0.3, delay_rate=0.3)
            )
            events = []
            for _ in range(200):
                try:
                    events.append(injector.on_memory_access())
                except TransientReadError:
                    events.append("T")
            return events, injector.stats.as_dict()

        assert schedule(5) == schedule(5)
        events_a, _ = schedule(5)
        events_b, _ = schedule(6)
        assert events_a != events_b

    def test_bitflip_caught_by_merkle(self):
        injector = FaultInjector(FaultConfig(bitflip_rate=1.0))
        oram = VerifiedPathORAM(small_config(), DeterministicRng(3), injector=injector)
        with pytest.raises(IntegrityViolationError):
            for addr in range(50):
                oram.access([addr])
        assert injector.stats.bitflips >= 1

    def test_replay_caught_by_merkle(self):
        injector = FaultInjector(FaultConfig(replay_rate=1.0))
        oram = VerifiedPathORAM(small_config(), DeterministicRng(3), injector=injector)
        with pytest.raises(IntegrityViolationError):
            # Same address repeatedly: its remapped path keeps crossing the
            # snapshotted buckets, so a stale image lands quickly.
            for _ in range(100):
                oram.access([1])
        assert injector.stats.replays >= 1


# =============================================================== fsck
class TestFsck:
    def make_oram(self):
        return VerifiedPathORAM(small_config(), DeterministicRng(3))

    def test_clean_store_passes(self):
        oram = self.make_oram()
        for addr in range(20):
            oram.access([addr])
        report = assert_consistent(oram)
        assert report.ok
        assert report.root_hash_checked
        assert (
            report.blocks_in_tree + report.blocks_in_stash == report.expected_blocks
        )

    def test_wrong_leaf_detected(self):
        oram = self.make_oram()
        for bucket in bucket_lists(oram.tree):
            if bucket:
                bucket[0] ^= 1  # the word's low bit: its leaf
                break
        report = run_fsck(oram)
        assert not report.ok
        assert any("leaf" in error for error in report.errors)

    def test_duplicate_block_detected(self):
        oram = self.make_oram()
        donor = next(b for b in bucket_lists(oram.tree) if b)
        oram.stash.add(donor[0])
        report = run_fsck(oram)
        assert not report.ok
        assert any("stash" in error for error in report.errors)

    def test_lost_block_detected(self):
        oram = self.make_oram()
        donor = next(b for b in bucket_lists(oram.tree) if b)
        donor.pop()
        report = run_fsck(oram)
        assert any("census" in error for error in report.errors)

    def test_root_hash_disagreement_detected(self):
        oram = self.make_oram()
        donor = next(b for b in bucket_lists(oram.tree) if b)
        # Payload-only mutation: census and placement stay legal, so only
        # the root-hash recomputation can catch it.
        oram.tree.payloads[donor[0] >> 32] = b"tampered"
        report = run_fsck(oram)
        assert any("root hash" in error for error in report.errors)

    def test_assert_consistent_raises(self):
        oram = self.make_oram()
        next(b for b in bucket_lists(oram.tree) if b)[0] ^= 1
        with pytest.raises(FsckError) as excinfo:
            assert_consistent(oram)
        assert excinfo.value.report.errors

    def test_error_accumulation_capped(self):
        oram = self.make_oram()
        for bucket in bucket_lists(oram.tree):
            bucket[:] = [word ^ 1 for word in bucket]
        report = run_fsck(oram, max_errors=4)
        assert len(report.errors) == 4


def bucket_lists(tree):
    """Every bucket's mutable list, heap order (each materialised as reached)."""
    return map(tree.bucket, range(tree.num_buckets))


def tree_blocks(tree):
    """``(bucket index, block word)`` for every block in the tree, heap order."""
    return [
        (index, word)
        for index in range(tree.num_buckets)
        for word in tree.bucket(index)
    ]


def plant_duplicate(oram, on_chip):
    _index, word = tree_blocks(oram.tree)[-1]
    on_chip[word >> 32] = word


def plant_dropped(oram, on_chip):
    index, word = tree_blocks(oram.tree)[-1]
    oram.tree.bucket(index).remove(word)


def plant_off_path(oram, on_chip):
    # The sibling's subtree is disjoint from the block's path.
    tree = oram.tree
    for index, word in tree_blocks(tree):
        sibling = index + 1 if index % 2 else index - 1
        if index and len(tree.bucket(sibling)) < tree.bucket_size:
            tree.bucket(index).remove(word)
            tree.bucket(sibling).append(word)
            return
    raise AssertionError("no block with room beside it")


def plant_leaf_mismatch(oram, on_chip):
    index, word = tree_blocks(oram.tree)[-1]
    bucket = oram.tree.bucket(index)
    # the copy is rerouted (its word's leaf bit); its mapping and bucket are not
    bucket[bucket.index(word)] = word ^ 1


def plant_over_z(oram, on_chip):
    # The root is on every path: moving blocks up into it keeps each one
    # on its own path and overfills nothing but the root.
    tree = oram.tree
    root = tree.bucket(0)
    for index, word in tree_blocks(tree)[::-1]:
        if len(root) > tree.bucket_size:
            return
        tree.bucket(index).remove(word)
        root.append(word)


def plant_out_of_range(oram, on_chip):
    tree = oram.tree
    room = next(
        i for i in range(tree.num_buckets) if len(tree.bucket(i)) < tree.bucket_size
    )
    tree.bucket(room).append(oram.num_blocks << 32 | 0)


#: damage -> (planter, what the report and the raised assertion say)
PLANTED_DAMAGE = {
    "duplicate": (plant_duplicate, "in both stash and tree"),
    "dropped": (plant_dropped, "missing from both tree and stash"),
    "off_path": (plant_off_path, "off-path"),
    "leaf_mismatch": (plant_leaf_mismatch, "copy leaf"),
    "over_z": (plant_over_z, "> Z="),
    "out_of_range": (plant_out_of_range, "out of range"),
}


def tree_scheme(name):
    """A tree ORAM after some traffic, and its on-chip blocks by address."""
    if name in ("path", "merkle_path"):
        cls = VerifiedPathORAM if name == "merkle_path" else PathORAM
        oram = cls(small_config(), DeterministicRng(3))
        on_chip = oram.stash.blocks
    elif name == "shi":
        oram = ShiTreeORAM(levels=5, num_blocks=64, rng=DeterministicRng(4))
        on_chip = oram.overflow
    else:
        oram = RingORAM(levels=5, num_blocks=96, rng=DeterministicRng(4))
        on_chip = oram.stash
    for addr in range(0, oram.num_blocks, 3):
        oram.access([addr])
    return oram, on_chip


class TestPlantedDamageMatrix:
    """Every tree scheme x every damage: one audit reports it and
    ``check_invariants`` raises it -- the same finding both ways."""

    @pytest.mark.parametrize("damage", sorted(PLANTED_DAMAGE))
    @pytest.mark.parametrize("scheme", ["path", "merkle_path", "shi", "ring"])
    def test_audit_reports_and_check_invariants_raises(self, scheme, damage):
        oram, on_chip = tree_scheme(scheme)
        report = run_fsck(oram)
        assert report.ok, report.summary()
        assert report.blocks_in_tree + report.blocks_in_stash == oram.num_blocks
        assert report.root_hash_checked == (scheme == "merkle_path")
        oram.check_invariants()
        plant, finding = PLANTED_DAMAGE[damage]
        plant(oram, on_chip)
        report = run_fsck(oram)
        assert any(finding in error for error in report.errors), report.summary()
        if damage == "dropped":
            assert any("census" in error for error in report.errors)
        with pytest.raises(AssertionError, match=re.escape(finding)):
            oram.check_invariants()


# ==================================================== resilient store
class TestResilientKVStore:
    def make_store(self, fault_config=MIXED_FAULTS):
        return ResilientKVStore(small_config(), fault_config=fault_config, seed=5)

    def test_mini_soak_no_lost_writes(self):
        store = self.make_store()
        shadow = run_workload(store, 700)
        for key, value in shadow.items():
            assert store.get(key) == value
        assert store.fault_stats.total_injected > 0
        assert store.recovery.retries > 0
        assert store.recovery.recoveries > 0
        assert_consistent(store.oram)

    def test_fault_free_matches_plain_store(self):
        resilient = self.make_store(fault_config=FaultConfig())
        plain = ObliviousKVStore(small_config(), seed=5)
        shadow_r = run_workload(resilient, 300)
        shadow_p = run_workload(plain, 300)
        assert shadow_r == shadow_p
        assert store_values(resilient, shadow_r) == store_values(plain, shadow_p)
        assert resilient.fault_stats.total_injected == 0
        assert resilient.recovery.recoveries == 0

    def test_same_fault_seed_same_counters(self):
        # Acceptance criterion: same fault seed => same schedule, same
        # retry/recovery counters, byte for byte.
        def one_run():
            store = self.make_store()
            run_workload(store, 400)
            return store.fault_stats.as_dict(), store.recovery.as_dict()

        assert one_run() == one_run()

    def test_different_fault_seed_different_schedule(self):
        def one_run(seed):
            config = FaultConfig(
                seed=seed,
                bitflip_rate=0.01,
                replay_rate=0.005,
                transient_rate=0.02,
                delay_rate=0.01,
                start_after=20,
            )
            store = self.make_store(fault_config=config)
            run_workload(store, 400)
            return store.fault_stats.as_dict()

        assert one_run(11) != one_run(12)

    def test_persistent_failure_escalates_to_recovery_error(self):
        store = self.make_store(fault_config=FaultConfig(transient_rate=1.0))
        with pytest.raises(RecoveryError):
            store.put(1, b"x")

    def test_checkpoint_roundtrip(self, tmp_path):
        store = self.make_store()
        shadow = run_workload(store, 200)
        store.checkpoint_now()
        path = str(tmp_path / "store.ckpt")
        with store.injector.paused():
            store.save(path)
        reopened = ResilientKVStore.open(path, seed=5, fault_config=FaultConfig())
        for key, value in shadow.items():
            assert reopened.get(key) == value
        assert_consistent(reopened.oram)

    @pytest.mark.parametrize("levels, seed", [(7, 0), (7, 3), (8, 0)])
    def test_genesis_checkpoint_restores(self, levels, seed):
        """Regression: a stash past its (soft) capacity at build time was
        sealed into the genesis checkpoint, and ``load_oram`` refused any
        stash larger than the capacity, so the store's first recovery
        could not restore.  Genesis now goes through the checkpoint drain,
        and a restore bounds the stash by the address space."""
        store = ResilientKVStore(
            small_config(levels=levels, bucket_size=2, utilization=0.9, stash_blocks=5),
            seed=seed,
        )
        genesis = load_oram(store._last_checkpoint)
        assert len(genesis.stash) > genesis.stash.capacity  # the soft case
        genesis.check_invariants()
        store.put(1, b"kept")
        store._recover()  # back to genesis, then the journal
        assert store.recovery.recoveries == 1
        assert store.get(1) == b"kept"
        assert_consistent(store.oram)

    def test_forced_evictions_relieve_stash(self):
        # High utilization + Z=2 keeps residual stash occupancy above a
        # tight soft watermark (a five-block stash: 4 blocks), so the
        # degradation rung must kick in.
        store = ResilientKVStore(
            small_config(bucket_size=2, utilization=0.9, stash_blocks=5),
            fault_config=FaultConfig(),
            seed=5,
        )
        run_workload(store, 200)
        assert store.recovery.degraded_events > 0
        assert store.recovery.forced_evictions > 0
        assert len(store.oram.stash) <= store.oram.stash.capacity

    def test_relief_judges_the_restored_stash(self):
        """Regression: stash relief bound the stash before its loop, so a
        forced eviction that escalated to a restore left it testing the
        dead ORAM's stash and running all eight forced evictions."""

        class FailsArmed(FaultInjector):
            armed = 0

            def on_path_read(self, tree, leaf):
                self.stats.path_reads += 1
                if self.enabled and self.armed:
                    self.armed -= 1
                    raise TransientReadError("scripted")
                return 0

        class ScriptedStore(ResilientKVStore):
            def _configure(self, fault_config=None):
                super()._configure(fault_config)
                self.injector = FailsArmed(FaultConfig())

        # A five-block stash: the soft watermark is 4 blocks.
        store = ScriptedStore(
            small_config(bucket_size=2, utilization=0.9, stash_blocks=5), seed=5
        )
        limit = store._stash_soft_limit
        # Reads (unjournaled, no relief) until the stash is at or under the
        # watermark: checkpoint there; then on until it is over.  A restore
        # returns exactly the checkpointed stash.
        checkpointed = None
        for key in range(store.capacity):
            occupancy = len(store.oram.stash)
            if checkpointed is None and occupancy <= limit:
                store.checkpoint_now()
                checkpointed = len(store.oram.stash)
            elif checkpointed is not None and occupancy > limit:
                break
            store._access(key, None)
        assert checkpointed is not None and checkpointed <= limit
        assert len(store.oram.stash) > limit
        # The first forced eviction fails its try and every retry, so the
        # ladder restores that checkpoint.
        store.injector.armed = MAX_RETRIES + 1
        store._relieve_stash()
        assert store.recovery.recoveries == 1
        assert store.recovery.degraded_events == 1
        assert store.recovery.forced_evictions == 1
        assert len(store.oram.stash) <= limit


def store_values(store, shadow):
    return {key: store.get(key) for key in sorted(shadow)}


class TestBackoffCycles:
    def test_capped_exponential_plus_jitter(self):
        """The one formula behind the KV store's ladder and the backend's
        in-place retries: base 16, exponent stops at 4 (256 cycles),
        jitter below one base period."""
        rng = DeterministicRng(1)
        for attempt in (0, 1, 2, 3, 4, 5, 19, 64, 10**5):
            term = 16 << min(attempt, 4)
            assert 0 <= backoff_cycles(attempt, rng) - term < 16


# ==================================================== timing backend
class TestBackendFaults:
    def run_system(self, fault_injector=None, scheme="dyn", config=None):
        trace = locality_mix_trace(0.8, accesses=4000)
        system = SecureSystem.build(
            scheme,
            footprint_blocks=trace.footprint_blocks,
            config=config,
            fault_injector=fault_injector,
        )
        return system.run(trace)

    def test_faults_counted_and_charged(self):
        injector = FaultInjector(
            FaultConfig(seed=7, transient_rate=0.05, delay_rate=0.05, delay_cycles=90)
        )
        faulty = self.run_system(fault_injector=injector)
        clean = self.run_system()
        assert faulty.extra["transient_faults"] > 0
        assert faulty.extra["fault_retries"] > 0
        assert faulty.extra["fault_delay_cycles"] > 0
        assert faulty.extra["injected_total_injected"] > 0
        assert faulty.cycles > clean.cycles

    def test_same_fault_seed_bit_identical(self):
        def one_run():
            injector = FaultInjector(
                FaultConfig(seed=7, transient_rate=0.05, delay_rate=0.05)
            )
            result = self.run_system(fault_injector=injector)
            return result.cycles, result.total_memory_accesses, dict(result.extra)

        assert one_run() == one_run()

    def test_zero_rate_injector_changes_nothing(self):
        # An attached but silent injector must not perturb timing.
        silent = self.run_system(fault_injector=FaultInjector(FaultConfig()))
        clean = self.run_system()
        assert silent.cycles == clean.cycles
        assert silent.total_memory_accesses == clean.total_memory_accesses
        assert silent.merges == clean.merges

    def test_soft_overflows_always_reported(self):
        clean = self.run_system()
        assert "stash_soft_overflows" in clean.extra
        assert "transient_faults" not in clean.extra  # faults off: no noise

    def test_degradation_forces_evictions(self):
        # A five-block stash puts the soft watermark at 4 blocks; a silent
        # injector wires the ladder without injecting anything.
        config = SystemConfig()
        config = dataclasses.replace(
            config, oram=dataclasses.replace(config.oram, stash_blocks=5)
        )
        result = self.run_system(
            fault_injector=FaultInjector(FaultConfig()), config=config
        )
        assert result.extra["forced_evictions"] > 0

    def test_retry_backoff_honours_the_ceiling(self):
        """Regression: the backend charged ``base << attempt`` with no
        ceiling; the shift now stops at ``MAX_RETRIES`` (256 cycles)."""

        class FailsFirst(FaultInjector):
            left = 12

            def on_memory_access(self):
                if self.left:
                    self.left -= 1
                    raise TransientReadError("scripted")
                return 0

        backend = SecureSystem.build(
            "oram", footprint_blocks=256, fault_injector=FailsFirst(FaultConfig())
        ).backend
        backend.demand_access(0, 0, False)
        assert backend.stats.fault_retries == 12
        capped = sum(min(16 << attempt, 256) for attempt in range(12))
        assert capped <= backend.stats.fault_delay_cycles < capped + 12 * 16

    @pytest.mark.parametrize(
        "scheme, shards", [("oram", 1), ("dyn_intvl", 1), ("dyn", 2)]
    )
    def test_endless_transient_rate_is_refused_at_build(self, scheme, shards):
        """Regression: at ``transient_rate`` 1 the in-place retry loop never
        ended; a controller, a periodic one and a bank all refuse it."""
        with pytest.raises(ValueError, match="transient_rate 1.0"):
            SecureSystem.build(
                scheme,
                footprint_blocks=256,
                fault_injector=FaultInjector(FaultConfig(transient_rate=1.0)),
                num_shards=shards,
            )

    def test_a_worker_refuses_the_endless_rate_too(self, tmp_path):
        spec = ShardSpec(
            "oram", 256, 2, 1, SystemConfig(), str(tmp_path / "shard.ckpt"),
            fault_config=FaultConfig(transient_rate=1.0),
        )
        with pytest.raises(ValueError, match="transient_rate 1.0"):
            build_worker_backend(spec)

    def test_dram_rejects_faults(self):
        with pytest.raises(ValueError, match="DRAM"):
            SecureSystem.build(
                "dram",
                footprint_blocks=4096,
                fault_injector=FaultInjector(FaultConfig()),
            )
