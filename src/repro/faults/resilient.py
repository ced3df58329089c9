"""The self-healing oblivious access path: detection turned into survival.

:class:`ResilientKVStore` is the :class:`~repro.oram.kv_store.ObliviousKVStore`
rebuilt for untrusted storage that actually misbehaves.  It runs on the
Merkle-verified ORAM (every path read checked against the trusted root)
with a :class:`~repro.faults.injector.FaultInjector` wrapping the bucket
array, and reacts to failures with a three-rung escalation ladder:

1. **retry** -- transient read failures are retried with bounded,
   deterministic exponential backoff (jitter from
   :class:`~repro.utils.rng.DeterministicRng`, so runs replay exactly);
2. **restore** -- integrity violations (bit-flips, stale-bucket replays)
   and exhausted retries restore the last good checkpoint and replay the
   client-side write journal, so no acknowledged write is ever lost;
3. **fsck** -- after every recovery (and before every checkpoint capture)
   :func:`~repro.faults.fsck.run_fsck` audits posmap<->tree<->stash
   consistency and root-hash agreement; an inconsistent store raises
   :class:`RecoveryError` rather than limping on.

Sustained stash pressure degrades gracefully instead of silently dropping
into ``stash_soft_overflows``: when occupancy crosses a soft watermark the
store forces extra background evictions (counted, bounded) before the hard
capacity is ever at risk.

The ladder's numbers are the module constants below, and the rungs a timing
backend shares with the store -- :func:`backoff_cycles`,
:func:`stash_soft_limit`, :func:`force_evictions` -- are defined here once
(:class:`~repro.memory.oram_backend.ORAMBackend` calls them too).

Durability invariant: a ``put``/``delete`` is journaled *before* its ORAM
access runs (write-ahead), and the journal is only truncated when a fresh
checkpoint captures its effects -- so at any instant every acknowledged
write is recorded in the checkpoint, the journal, or both.  Replay is
idempotent (a put is a blind overwrite), so at-least-once recovery yields
exactly the acknowledged state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.faults.fsck import FsckReport, run_fsck
from repro.faults.injector import FaultConfig, FaultInjector, TransientReadError
from repro.observability.metrics import MetricsRegistry
from repro.oram.checkpoint import dump_oram, load_oram
from repro.oram.integrity import IntegrityViolationError, VerifiedPathORAM
from repro.oram.kv_store import ObliviousKVStore
from repro.oram.path_oram import PathORAM
from repro.utils.rng import DeterministicRng

T = TypeVar("T")


class RecoveryError(RuntimeError):
    """The escalation ladder is exhausted; the store cannot self-heal."""


#: transient-failure retries per KV operation before the failure is treated
#: as persistent and escalated to a restore; also the step at which the
#: backoff stops doubling
MAX_RETRIES = 4
#: base of the exponential backoff, and the range of its jitter draw
BACKOFF_BASE_CYCLES = 16
#: checkpoint restores one KV operation may trigger before RecoveryError
MAX_RECOVERIES_PER_OP = 3
#: acknowledged writes between checkpoint captures (the journal-replay bound)
CHECKPOINT_INTERVAL = 128
#: stash occupancy fraction above which stash relief runs
STASH_SOFT_FRACTION = 0.8
#: forced background evictions per relief episode
MAX_FORCED_EVICTIONS = 8


def backoff_cycles(attempt: int, rng: DeterministicRng) -> int:
    """Cycles to wait before retry ``attempt`` (0-based).

    The exponential term stops doubling after ``MAX_RETRIES`` steps (so it
    tops out at ``16 << 4`` = 256); one jitter draw from ``rng`` keeps
    repeated runs replaying exactly.  The KV store's retry ladder and the
    timing backend's in-place retries both charge this.
    """
    term = BACKOFF_BASE_CYCLES << min(attempt, MAX_RETRIES)
    return term + rng.randbelow(BACKOFF_BASE_CYCLES)


def stash_soft_limit(capacity: int) -> int:
    """The soft watermark of a stash of ``capacity`` blocks."""
    return max(1, int(capacity * STASH_SOFT_FRACTION))


def force_evictions(owner, limit: int, evict: Callable[[], object]) -> int:
    """The stash-relief rung: ``evict()`` while ``owner.oram``'s stash holds
    more than ``limit`` blocks, at most ``MAX_FORCED_EVICTIONS`` times;
    returns how many ran.

    The stash is looked up through ``owner`` on every step: an eviction
    that escalates to a checkpoint restore replaces the owner's ORAM, and
    relief must judge the restored stash, not the one it started on.
    """
    forced = 0
    while forced < MAX_FORCED_EVICTIONS and len(owner.oram.stash) > limit:
        evict()
        forced += 1
    return forced


def refuse_endless_retries(config: FaultConfig) -> None:
    """Reject a fault config a timing backend could never finish under.

    A timing backend retries a transient failure in place until the
    storage answers; at ``transient_rate`` 1 it never does.  (The KV
    store's bounded ladder ends in :class:`RecoveryError` instead.)
    """
    if config.transient_rate >= 1:
        raise ValueError(
            f"transient_rate {config.transient_rate} fails every access; a "
            "timing backend retries in place and would never complete"
        )


@dataclass
class RecoveryStats:
    """Counters of everything the resilient path did to stay alive."""

    transient_faults: int = 0
    retries: int = 0
    backoff_cycles: int = 0
    integrity_violations: int = 0
    recoveries: int = 0
    replayed_ops: int = 0
    fsck_runs: int = 0
    checkpoints: int = 0
    forced_evictions: int = 0
    degraded_events: int = 0

    def as_dict(self) -> dict:
        """Every counter by name: the journal/benchmark schema."""
        return asdict(self)


class ResilientKVStore(ObliviousKVStore):
    """Oblivious KV store that survives faulty untrusted storage.

    Built (and reopened) by the base class; the two extra keyword arguments
    reach :meth:`_configure`, the Merkle-verified ORAM :meth:`_make_oram`.

    Args:
        config: ORAM geometry (as for :class:`ObliviousKVStore`).
        key: symmetric key for the probabilistic cipher.
        seed: determinism seed (store randomness, backoff jitter, and the
            recovery RNG forks all derive from it).
        observer: optional adversary observer.
        fault_config: fault classes to inject; ``None`` runs fault-free
            (the injector stays attached but inert, so the access path is
            identical either way).

    The ladder's numbers are this module's constants.
    """

    def _configure(self, fault_config: Optional[FaultConfig] = None) -> None:
        self.injector = FaultInjector(fault_config or FaultConfig())
        self.recovery = RecoveryStats()

    def _make_oram(self, config, rng, observer=None, populate=True) -> PathORAM:
        return VerifiedPathORAM(
            config, rng, observer=observer, populate=populate, injector=self.injector
        )

    def _attach(self, oram, key, seed, observer) -> None:
        super()._attach(oram, key, seed, observer)
        self._seed = seed
        rng = DeterministicRng(seed)
        self._backoff_rng = rng.fork(0xBACF)
        self._recovery_forks = 0
        self._journal: List[Tuple[str, int, Optional[bytes]]] = []
        self._writes_since_checkpoint = 0
        self._stash_soft_limit = stash_soft_limit(self._oram.stash.capacity)
        # Genesis checkpoint: the freshly built (or just restored) store is
        # known good, so recovery always has somewhere to fall back to.
        with self.injector.paused():
            self._seal()
        self.recovery.checkpoints += 1

    # ------------------------------------------------------------ operations
    def get(self, key: int) -> Optional[bytes]:
        """Read ``key``, healing any storage fault encountered on the way."""
        self._check_key(key)
        value = self._guarded(lambda: self._access(key, None))
        self._relieve_stash()
        return value

    def put(self, key: int, value: bytes) -> None:
        """Write ``value`` durably: journaled first, acknowledged only after
        the (possibly healed) ORAM access completes."""
        self._check_key(key)
        if len(value) > self.payload_bytes:
            raise ValueError(f"value exceeds {self.payload_bytes} bytes")
        self._journal.append(("put", key, value))
        self._guarded(lambda: self._access(key, value))
        self._note_write()

    def delete(self, key: int) -> None:
        """Reset ``key`` to the unwritten state (journaled like a put)."""
        self._check_key(key)
        self._journal.append(("del", key, None))
        self._guarded(lambda: self._erase(key))
        self._note_write()

    def _note_write(self) -> None:
        self._writes_since_checkpoint += 1
        self._relieve_stash()
        if self._writes_since_checkpoint >= CHECKPOINT_INTERVAL:
            self._take_checkpoint()

    # ------------------------------------------------------ escalation ladder
    def _guarded(self, op: Callable[[], T]) -> T:
        """Run one storage operation under the retry -> restore ladder."""
        stats = self.recovery
        retries = 0
        recoveries = 0
        while True:
            try:
                return op()
            except TransientReadError:
                stats.transient_faults += 1
                if retries < MAX_RETRIES:
                    stats.retries += 1
                    stats.backoff_cycles += backoff_cycles(retries, self._backoff_rng)
                    retries += 1
                    continue
                # Retries exhausted: the "transient" fault is persistent.
                recoveries += 1
                if recoveries > MAX_RECOVERIES_PER_OP:
                    raise RecoveryError(
                        "persistent transient failures survived "
                        f"{recoveries - 1} recoveries"
                    )
                self._recover()
                retries = 0
            except IntegrityViolationError as exc:
                stats.integrity_violations += 1
                recoveries += 1
                if recoveries > MAX_RECOVERIES_PER_OP:
                    raise RecoveryError(
                        f"integrity violations survived {recoveries - 1} "
                        f"recoveries (last: {exc})"
                    )
                self._recover()
                retries = 0

    # --------------------------------------------------------------- recovery
    def _recover(self) -> None:
        """Rung 2 + 3: restore the last good checkpoint, replay the journal,
        then audit the result with fsck."""
        self.recovery.recoveries += 1
        self._recovery_forks += 1
        rng = DeterministicRng(self._seed).fork(0x5EC0 + self._recovery_forks)
        # Recovery reads the sealed checkpoint store and replays through a
        # freshly verified tree; the fault model covers steady-state
        # operation, so injection pauses for the duration.
        with self.injector.paused():
            self._oram = load_oram(
                self._last_checkpoint,
                rng=rng,
                observer=self.observer,
                oram_factory=self._make_oram,
            )
            for op, key, value in self._journal:
                if op == "put":
                    self._access(key, value)
                else:
                    self._erase(key)
                self.recovery.replayed_ops += 1
            report = self._audit()
            if not report.ok:
                raise RecoveryError(f"post-recovery fsck failed:\n{report.summary()}")

    def _audit(self) -> FsckReport:
        self.recovery.fsck_runs += 1
        return run_fsck(self._oram)

    def _take_checkpoint(self) -> None:
        """Capture a new last-good checkpoint and truncate the journal.

        The capture is guarded by a full audit: a checkpoint must never
        seal in undetected corruption, or recovery would faithfully restore
        the damage.
        """
        with self.injector.paused():
            if not self._audit().ok:
                self._recover()
            self._seal()
        self._journal.clear()
        self._writes_since_checkpoint = 0
        self.recovery.checkpoints += 1

    def _seal(self) -> None:
        """Drain the stash, then capture the last-good checkpoint: the one
        capture both the genesis and every later checkpoint go through."""
        self._oram.drain_stash()
        self._last_checkpoint = dump_oram(self._oram)

    # ------------------------------------------------------------ degradation
    def _relieve_stash(self) -> None:
        """Graceful degradation under sustained stash pressure.

        Runs :func:`force_evictions` once occupancy crosses the soft
        watermark, well before ``drain_stash`` would give up and record a
        ``stash_soft_overflow``; each forced eviction runs under the ladder,
        so one may restore a checkpoint mid-episode."""
        limit = self._stash_soft_limit
        if len(self._oram.stash) <= limit:
            return
        self.recovery.degraded_events += 1
        self.recovery.forced_evictions += force_evictions(
            self, limit, lambda: self._guarded(lambda: self._oram.dummy_access("forced"))
        )

    # ------------------------------------------------------------------ misc
    def checkpoint_now(self) -> None:
        """Force a checkpoint capture (tests and orderly shutdown)."""
        self._take_checkpoint()

    @property
    def fault_stats(self):
        """The injector's :class:`~repro.faults.injector.FaultStats`."""
        return self.injector.stats

    def metrics(self, registry=None):
        """One registry with the ladder's ``recovery.*`` counters plus the
        injector's ``faults.injected_*`` totals (the metrics surface for
        resilient stores)."""
        registry = registry if registry is not None else MetricsRegistry()
        registry.absorb(self.recovery.as_dict(), "recovery.")
        return registry.absorb(self.injector.stats.as_dict(), "faults.injected_")
