"""Channel-interleaved sharded ORAM banks.

A :class:`ShardedORAMBank` puts ``N`` independent ORAM controller
instances -- each a complete :class:`~repro.memory.oram_backend.ORAMBackend`
with its own tree, stash, position-map hierarchy, super-block scheme, and
access pipeline -- behind the single
:class:`~repro.memory.backend.MemoryBackend` interface the simulators
drive.  Think memory channels: block addresses are interleaved
``shard = addr % N``, ``local = addr // N``, so consecutive blocks land on
consecutive shards and a pointer-chasing core streams across all banks.

Why this wins: the paper serializes one ORAM ("a single ORAM access
saturates the available DRAM bandwidth", section 2.6), but with per-shard
channels each bank saturates only its own pins.  Every shard serializes on
its *own* ``busy_until``, so two cores missing to different shards overlap
their path accesses -- the inter-tree parallelism Palermo exploits --
while two misses to the same shard still queue, preserving the paper's
intra-channel model.

Security note: the interleaving function is public (as is standard for
multi-channel memory), each shard's access sequence is independently
oblivious, and the shard selector depends only on the (already leaked)
block address stream shape -- so the bank leaks nothing beyond N public
channel choices.

Determinism: shard construction order, the round-robin order of
:meth:`ShardedORAMBank.access_batch`, and each shard's forked RNG are all
fixed, so a run is bit-reproducible for any shard count.

One controller is a bank of one, by protocol rather than by wrapping: a
lone :class:`~repro.memory.oram_backend.ORAMBackend` already answers
``shards``/``num_blocks``/``snapshot_shards()`` itself, so ``num_shards ==
1`` builds exactly that object (:func:`build_shard_backend` with index 0 of
1) and nothing is added to its access path; a :class:`ShardedORAMBank` is
only assembled for real interleaving (or by callers that want the bank's
batch API at width 1).

Construction: this module is the one place ORAM controllers are made.
:func:`build_shard_backend` is the only constructor call of
``ORAMBackend``/``PeriodicORAMBackend`` (and of the ORAM each one is
handed) and :func:`build_bank` the only
assembly of a bank and its health plane; the system builder, the serving
front end, the serial reference and the shard workers all import them from
here.

Results: the bank keeps no aggregate accounting of its own beyond the
``stats``/``busy_until`` views.
:meth:`~repro.memory.oram_backend.ORAMBackend.counters` walks one
controller's counters, and every route to a
:class:`~repro.sim.results.SimResult` -- a standalone controller, this
bank, the worker runtime, the serving front end -- hands those snapshots
to the one fold in :mod:`repro.parallel.merge`, so their agreement is
structural rather than a property tests have to chase.

This module is intentionally *not* re-exported from
``repro.controller.__init__``: it imports :mod:`repro.memory`, which
imports the controller package, and the indirection keeps that cycle open.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.dynamic import DynamicSuperBlockScheme
from repro.core.strided import StridedDynamicScheme
from repro.core.thresholds import (
    AdaptiveThresholdPolicy,
    StaticThresholdPolicy,
    ThresholdPolicy,
)
from repro.health.plane import HealthControlPlane
from repro.memory.backend import BackendStats, DemandResult, MemoryBackend, sum_counters
from repro.memory.oram_backend import ORAMBackend
from repro.memory.periodic import PeriodicORAMBackend
from repro.oram.path_oram import PathORAM
from repro.oram.super_block import BaselineScheme, StaticSuperBlockScheme, SuperBlockScheme
from repro.utils.rng import DeterministicRng


class ShardedORAMBank(MemoryBackend):
    """N address-interleaved ORAM controllers behind one backend interface.

    Args:
        shards: the per-channel backends, already built and sized; shard
            ``i`` owns every global address congruent to ``i`` mod ``N``.
    """

    def __init__(self, shards: Sequence[ORAMBackend]):
        # MemoryBackend.__init__ is skipped deliberately: ``stats`` and
        # ``busy_until`` are aggregate *views* over the shards (properties
        # below), not own state.
        if not shards:
            raise ValueError("need at least one shard")
        self.shards: List[ORAMBackend] = list(shards)
        self.num_shards = self.bank_width = len(self.shards)
        for index, shard in enumerate(self.shards):
            # Spans emitted by a channel's pipeline carry the channel index
            # and the *global* address (local * stride + index).
            shard.shard_index = index
            shard.addr_stride = self.num_shards
        #: valid global addresses: every (shard, local) pair must exist in
        #: its shard, so the bank exposes the smallest shard rounded down.
        self.num_blocks = self.num_shards * min(
            shard.oram.position_map.num_blocks for shard in self.shards
        )
        #: optional :class:`~repro.health.HealthControlPlane`; ``None``
        #: keeps the access path bit-identical to the pre-health bank
        self.health = None
        self._pressure_limits: List[int] = []

    # ----------------------------------------------------------------- wiring
    def set_recorder(self, recorder) -> None:
        """Share one span recorder across every channel.

        A single recorder hands out the global ``seq`` numbers, so spans
        from interleaved channels land in one totally-ordered stream.
        """
        for shard in self.shards:
            shard.set_recorder(recorder)

    @property
    def recorder(self):
        return self.shards[0].recorder

    def set_llc_probe(self, probe: Callable[[int], bool]) -> None:
        """Install the (global-address) LLC tag probe on every shard.

        Each shard's scheme reasons in local addresses, so the probe is
        wrapped with that shard's address translation.
        """
        num_shards = self.num_shards
        for index, shard in enumerate(self.shards):
            shard.set_llc_probe(
                lambda local, _i=index: probe(local * num_shards + _i)
            )

    def attach_health(self, plane) -> None:
        """Install a :class:`~repro.health.HealthControlPlane`.

        The plane must be as wide as the bank.  Once attached, every
        demand access feeds its shard's breaker (fault outcome +
        latency), the breaker state's ``padded`` / ``throttled`` drive
        per-shard mitigation (dummy-path padding, degraded mode), a
        quarantined shard past its cooldown is half-opened, and stash
        occupancy above the policy's pressure watermark degrades the
        shard immediately.  Detach with ``None`` (mitigations are
        lifted).
        """
        if plane is not None and plane.num_shards != self.num_shards:
            raise ValueError(
                f"health plane is {plane.num_shards} wide, bank is "
                f"{self.num_shards}"
            )
        self.health = plane
        if plane is None:
            self._pressure_limits = []
            for shard in self.shards:
                shard.set_degraded(False)
            return
        fraction = plane.policy.stash_pressure_fraction
        self._pressure_limits = [
            max(1, int(shard.oram.stash.capacity * fraction))
            for shard in self.shards
        ]

    def quarantine_shard(self, index: int, reason: str = "operator") -> None:
        """Hard-quarantine one channel (chaos/fault hook; needs a plane)."""
        if self.health is None:
            raise ValueError("no health plane attached")
        state = self.health.record_hard_failure(index, reason)
        self.shards[index].set_degraded(state.throttled)

    def _split(self, addr: int) -> Tuple[ORAMBackend, int]:
        return self.shards[addr % self.num_shards], addr // self.num_shards

    def shard_of(self, addr: int) -> int:
        """Which channel owns a global address (the public interleave)."""
        return addr % self.num_shards

    def coalesce_key(self, addr: int) -> Tuple[int, int]:
        """Coalescing identity of an address: ``(shard, super-block leader)``.

        Two addresses share a key exactly when one ORAM path access serves
        both -- they live on the same shard and the shard's scheme currently
        maps them into the same (super) block, so the serving front end can
        dedupe concurrent requests for them onto a single access.  For the
        baseline scheme the key degenerates to ``(shard, local)``.
        """
        shard_index = addr % self.num_shards
        members = self.shards[shard_index].scheme.members_for(
            addr // self.num_shards
        )
        return (shard_index, min(members))

    def stash_fraction(self, shard_index: int) -> float:
        """A channel's current stash occupancy over its capacity."""
        stash = self.shards[shard_index].oram.stash
        return len(stash) / stash.capacity

    def _globalize(self, shard_index: int, result: DemandResult) -> DemandResult:
        """Translate a shard's local fill addresses back to global ones."""
        num_shards = self.num_shards
        result.filled = [
            (local * num_shards + shard_index, prefetched)
            for local, prefetched in result.filled
        ]
        return result

    # ----------------------------------------------------------------- access
    def demand_access(self, addr: int, now: int, is_write: bool) -> DemandResult:
        shard_index = addr % self.num_shards
        shard = self.shards[shard_index]
        if self.health is None:
            result = shard.demand_access(addr // self.num_shards, now, is_write)
            return self._globalize(shard_index, result)
        return self._health_access(
            shard_index, shard, addr // self.num_shards, now, is_write
        )

    def _health_access(
        self, shard_index: int, shard: ORAMBackend, local: int, now: int,
        is_write: bool,
    ) -> DemandResult:
        """One demand access under the health protocol.

        A sick channel (quarantined fallback or half-open probe: the
        state is ``padded``) still serves its own addresses -- the blocks
        live in its tree; there is nowhere else to read them -- but pads
        each access with a dummy path access, so every request presents
        the same two-path shape to the storage adversary.  Both paths draw
        uniformly random leaves, so the access sequence stays
        indistinguishable from the healthy one (the chaos harness gates
        this with the :class:`~repro.observability.LeafUniformityMonitor`).
        The outcome is fed to the breaker whatever the state; stash
        pressure only while unpadded; then the shard's degraded mode
        follows the state's ``throttled``.
        """
        health = self.health
        padded = health.state(shard_index).padded
        if padded:
            # Half-opening a quarantined shard past its cooldown turns this
            # access into a probe; both states pad.
            health.begin_probe_if_ready(shard_index)
        stats = shard.stats
        faults_before = stats.transient_faults
        start = max(now, shard.busy_until)
        result = shard.demand_access(local, now, is_write)
        if padded:
            result.completion_cycle = shard.dummy_path_access(
                result.completion_cycle
            )
        state = health.record_access(
            shard_index,
            stats.transient_faults == faults_before,
            result.completion_cycle - start,
        )
        if not padded and len(shard.oram.stash) > self._pressure_limits[shard_index]:
            state = health.record_pressure(shard_index)
        if state.throttled != shard.degraded:
            shard.set_degraded(state.throttled)
        return self._globalize(shard_index, result)

    def prefetch_access(self, addr: int, now: int) -> Optional[DemandResult]:
        shard_index = addr % self.num_shards
        shard = self.shards[shard_index]
        result = shard.prefetch_access(addr // self.num_shards, now)
        if result is None:
            return None
        return self._globalize(shard_index, result)

    def access_batch(
        self, requests: Sequence[Tuple[int, int, bool]]
    ) -> List[DemandResult]:
        """Serve a batch of ``(addr, now, is_write)`` concurrently in-flight.

        Requests are partitioned by shard (preserving arrival order within
        a shard) and issued deterministically round-robin across shards --
        one request per shard per round, shard index ascending -- so a
        multicore trace fans out and each shard's queue drains
        independently.  Results come back in the input order.
        """
        per_shard: List[List[int]] = [[] for _ in range(self.num_shards)]
        for position, (addr, _now, _w) in enumerate(requests):
            per_shard[addr % self.num_shards].append(position)
        results: List[Optional[DemandResult]] = [None] * len(requests)
        round_index = 0
        remaining = len(requests)
        while remaining:
            for shard_index in range(self.num_shards):
                queue = per_shard[shard_index]
                if round_index >= len(queue):
                    continue
                position = queue[round_index]
                addr, now, is_write = requests[position]
                results[position] = self.demand_access(addr, now, is_write)
                remaining -= 1
            round_index += 1
        return results  # type: ignore[return-value]

    # ----------------------------------------------------------- cache events
    def evict_line(self, addr: int, dirty: bool, now: int) -> None:
        shard, local = self._split(addr)
        shard.evict_line(local, dirty, now)

    def on_llc_hit(self, addr: int) -> None:
        shard, local = self._split(addr)
        shard.on_llc_hit(local)

    def finalize(self, now: int) -> None:
        for shard in self.shards:
            shard.finalize(now)

    # ------------------------------------------------------------- aggregates
    @property
    def busy_until(self) -> int:  # type: ignore[override]
        """The bank is busy until its last-finishing channel is."""
        return max(shard.busy_until for shard in self.shards)

    @busy_until.setter
    def busy_until(self, value: int) -> None:
        raise AttributeError("per-shard busy_until is owned by the shards")

    @property
    def stats(self) -> BackendStats:  # type: ignore[override]
        """Aggregate counters summed over every shard (a fresh snapshot)."""
        return BackendStats(
            **sum_counters(asdict(shard.stats) for shard in self.shards)
        )

    @stats.setter
    def stats(self, value: BackendStats) -> None:
        raise AttributeError("bank stats are an aggregate view over the shards")

    def snapshot_shards(self) -> List[dict]:
        """Per-channel ``counters()`` walks.

        Channels built by :func:`build_bank` share one fault
        injector, whose counters are then already bank-wide: they are
        reported on the first channel that carries it, not once per
        channel.
        """
        snapshots = [shard.counters() for shard in self.shards]
        injectors = [shard.injector for shard in self.shards]
        for index, injector in enumerate(injectors):
            if any(injector is earlier for earlier in injectors[:index]):
                snapshots[index]["injector"] = None
        return snapshots

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on the first finding of the bank audit."""
        from repro.faults.fsck import run_fsck_bank

        report = run_fsck_bank(self, max_errors=1)
        if not report.ok:
            raise AssertionError(report.errors[0])


# ------------------------------------------------------------- construction
#: Figure 6b variants: dyn_{sm|am}_{nb|ab} selects static/adaptive merge
#: thresholding and no/adaptive breaking; bare "dyn" is the full PrORAM
#: (adaptive merge + adaptive break).
_DYN_VARIANTS = {
    "dyn": (AdaptiveThresholdPolicy, True),
    "dyn_am_ab": (AdaptiveThresholdPolicy, True),
    "dyn_sm_nb": (StaticThresholdPolicy, False),
    "dyn_am_nb": (AdaptiveThresholdPolicy, False),
    "dyn_sm_ab": (StaticThresholdPolicy, True),
}

#: every base scheme name :func:`make_policy` builds
ORAM_SCHEMES = ("oram", "stat", *_DYN_VARIANTS, "dyn_strided")


def make_policy(
    name: str,
    config: SystemConfig,
    thresholds: Optional[ThresholdPolicy] = None,
) -> SuperBlockScheme:
    """The super block *policy* behind a base scheme name.

    Both ``stat`` and the ``dyn`` family cap super blocks at
    ``config.oram.max_super_block_size``.  (The ORAM *construction* a
    controller drives is a different choice:
    :func:`repro.controller.scheme.build_scheme` names those.)
    """
    if name == "oram":
        return BaselineScheme()
    if name == "stat":
        return StaticSuperBlockScheme(config.oram.max_super_block_size)
    if name == "dyn_strided":
        # Future-work extension (section 6.2): strided pair merging.
        return StridedDynamicScheme(policy=thresholds)
    if name in _DYN_VARIANTS:
        default_thresholds, break_enabled = _DYN_VARIANTS[name]
        return DynamicSuperBlockScheme(
            max_sbsize=config.oram.max_super_block_size,
            policy=thresholds or default_thresholds(),
            break_enabled=break_enabled,
        )
    raise ValueError(f"unknown scheme '{name}'")


def build_shard_backend(
    base_scheme: str,
    footprint_blocks: int,
    config: SystemConfig,
    shard_index: int,
    num_shards: int,
    *,
    policy: Optional[ThresholdPolicy] = None,
    periodic: bool = False,
    observer=None,
    fault_injector=None,
    resilience=None,
    rng_restart_salt: int = 0,
) -> ORAMBackend:
    """Build channel ``shard_index`` of an ``num_shards``-way ORAM bank.

    This is the single construction path for ORAM controllers: index 0 of
    1 is the paper's lone controller (:meth:`SecureSystem.build`),
    :func:`build_bank` loops over it, and a :mod:`repro.parallel` worker
    calls it for just its own index.  The RNG derivation is pure in
    ``(config.seed, shard_index)`` -- ``fork`` hashes an integer tuple,
    untouched by hash randomization -- so a worker process rebuilds shard
    ``i`` bit-identically to the serial bank without ever seeing the other
    shards.  The ORAM (built unpopulated, with the observer) and the super
    block policy are made here and handed to the backend, which attaches
    the one to the other and populates.

    Args:
        base_scheme: scheme name with any prefetch/periodic suffix already
            stripped ("oram", "stat", "dyn", ...).
        footprint_blocks: the *global* workload footprint; each shard's
            tree is scaled to its ceil-divided slice.
        shard_index: which channel to build, in ``range(num_shards)``.
        policy: threshold policy for a ``dyn`` controller (stateful, so
            only a lone controller may be handed one).
        periodic: wrap the controller in periodic accesses (Figure 15)
            at ``config.timing_protection.interval_cycles`` (``Oint``).
        rng_restart_salt: 0 for a first boot (bit-identical to the serial
            bank); a respawned worker passes its restart attempt number so
            the recovered shard draws a fresh, still-deterministic leaf
            stream instead of replaying the seed stream from the start.
    """
    if not 0 <= shard_index < num_shards:
        raise ValueError(f"shard index {shard_index} outside 0..{num_shards - 1}")
    per_shard_blocks = (footprint_blocks + num_shards - 1) // num_shards
    rng = DeterministicRng(config.seed).fork(11 + 101 * shard_index)
    if rng_restart_salt:
        rng = rng.fork(0x5EC0 + rng_restart_salt)
    oram_config = config.oram.scaled_to_footprint(per_shard_blocks)
    oram = PathORAM(oram_config, rng, observer=observer, populate=False)
    scheme = make_policy(base_scheme, config, policy)
    wiring = dict(fault_injector=fault_injector, resilience=resilience)
    if periodic:
        backend: ORAMBackend = PeriodicORAMBackend(
            oram, config.dram, scheme, config.timing_protection, **wiring
        )
    else:
        backend = ORAMBackend(oram, config.dram, scheme, **wiring)
    backend.shard_index = shard_index
    backend.addr_stride = num_shards
    return backend


def build_bank(
    base_scheme: str,
    footprint_blocks: int,
    config: SystemConfig,
    num_shards: int,
    *,
    health_policy=None,
    observer=None,
    fault_injector=None,
    resilience=None,
) -> ShardedORAMBank:
    """Assemble an ``num_shards``-way bank (the only place one is made).

    Each channel gets its own controller -- scheme instance, tree scaled
    to its slice of the footprint, a distinct RNG fork -- from
    :func:`build_shard_backend`; ``health_policy`` (a
    :class:`~repro.health.HealthPolicy`) attaches a control plane as wide
    as the bank.
    """
    bank = ShardedORAMBank(
        [
            build_shard_backend(
                base_scheme,
                footprint_blocks,
                config,
                index,
                num_shards,
                observer=observer,
                fault_injector=fault_injector,
                resilience=resilience,
            )
            for index in range(num_shards)
        ]
    )
    if health_policy is not None:
        bank.attach_health(HealthControlPlane(num_shards, health_policy))
    return bank
