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
only assembled for real interleaving, for a health plane (a supervised
lone controller is a bank of one) and by a shard worker, whose one channel
runs the bank's access path.

Construction: this module is the one place ORAM controllers are made.
:func:`build_shard_backend` is the only constructor call of
``ORAMBackend``/``PeriodicORAMBackend`` (and of the ORAM each one is
handed), :func:`build_bank` assembles an in-process bank, and the bank
constructor wires its health plane; the system builder, the serving front
end, the serial reference and the shard workers all import them from here.

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
from repro.health.breaker import HealthPolicy
from repro.health.plane import HealthControlPlane
from repro.memory.backend import Answer, BackendStats, MemoryBackend, sum_counters
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
            Each keeps the channel index and address stride
            :func:`build_shard_backend` gave it, so a shard worker's bank of
            one still reports its channel ``i`` of ``N``.
        health_policy: optional :class:`~repro.health.HealthPolicy`; the
            bank then holds a control plane as wide as itself and runs
            every demand access through :func:`health_access`.
    """

    def __init__(
        self,
        shards: Sequence[ORAMBackend],
        health_policy: Optional[HealthPolicy] = None,
    ):
        # MemoryBackend.__init__ is skipped deliberately: ``stats`` and
        # ``busy_until`` are aggregate *views* over the shards (properties
        # below), not own state.
        if not shards:
            raise ValueError("need at least one shard")
        self.shards: List[ORAMBackend] = list(shards)
        self.num_shards = self.bank_width = len(self.shards)
        #: valid global addresses: every (shard, local) pair must exist in
        #: its shard, so the bank exposes the smallest shard rounded down.
        self.num_blocks = self.num_shards * min(
            shard.oram.position_map.num_blocks for shard in self.shards
        )
        #: the :class:`~repro.health.HealthControlPlane`, as wide as the
        #: bank, under a *health_policy*; ``None`` keeps the access path
        #: bit-identical to the pre-health bank
        self.health = None
        #: per shard, the stash occupancy above which the plane counts
        #: pressure (:func:`pressure_limit`; set with ``health``)
        self.stash_limits: List[int] = []
        if health_policy is not None:
            # Every demand access then feeds its shard's breaker (fault
            # outcome + latency) through health_access: the breaker state's
            # ``padded`` / ``throttled`` drive per-shard mitigation
            # (dummy-path padding, degraded mode), a quarantined shard past
            # its cooldown is half-opened, and stash occupancy above the
            # policy's pressure watermark degrades the shard immediately.
            self.health = HealthControlPlane(self.num_shards, health_policy)
            self.stash_limits = [
                pressure_limit(shard, health_policy) for shard in self.shards
            ]
        elif self.num_shards == 1:
            # A bank of one with no plane: the interleave is the identity,
            # so requests call the shard with no forwarding frame.
            self.demand_access = self.shards[0].demand_access
            self.prefetch_access = self.shards[0].prefetch_access

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

    def quarantine_shard(self, index: int, reason: str = "operator") -> None:
        """Hard-quarantine one channel (chaos/fault hook; needs a plane)."""
        if self.health is None:
            raise ValueError("no health plane attached")
        quarantine(self.health, index, self.shards[index], reason)

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
        baseline scheme the key degenerates to ``(shard, local)``.  Every
        scheme's ``members_for`` is ascending, so the leader is its head.
        """
        shard_index = addr % self.num_shards
        members = self.shards[shard_index].scheme.members_for(
            addr // self.num_shards
        )
        return (shard_index, members[0])

    # ----------------------------------------------------------------- access
    def demand_access(self, addr: int, now: int, is_write: bool) -> Answer:
        num_shards = self.num_shards
        shard_index = addr % num_shards
        shard = self.shards[shard_index]
        if self.health is None:
            completion, fills = shard.demand_access(addr // num_shards, now, is_write)
        else:
            completion, fills = health_access(
                self.health, shard_index, shard, addr // num_shards, now,
                is_write, self.stash_limits[shard_index],
            )
        if num_shards == 1:  # the interleave is the identity
            return completion, fills
        # The shard filled local addresses: hand global ones back.
        return completion, [local * num_shards + shard_index for local in fills]

    def prefetch_access(self, addr: int, now: int) -> Optional[Answer]:
        num_shards = self.num_shards
        shard_index = addr % num_shards
        issued = self.shards[shard_index].prefetch_access(addr // num_shards, now)
        if issued is None or num_shards == 1:
            return issued
        completion, fills = issued
        return completion, [local * num_shards + shard_index for local in fills]

    def access_batch(
        self, requests: Sequence[Tuple[int, int, bool]]
    ) -> List[Answer]:
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
        results: List[Optional[Answer]] = [None] * len(requests)
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


# ------------------------------------------------------------ health step
# One shard's health protocol, run by the bank for its channel ``index``.  A
# shard worker holds a bank of one, so a breaker is fed the same events per
# access in-process and in a worker.

def pressure_limit(shard: ORAMBackend, policy: HealthPolicy) -> int:
    """Stash occupancy above which *policy* counts a pressure signal."""
    return max(1, int(shard.oram.stash.capacity * policy.stash_pressure_fraction))


def health_access(
    health: HealthControlPlane, index: int, shard: ORAMBackend, local: int,
    now: int, is_write: bool, stash_limit: int,
) -> Answer:
    """One demand access of *shard* under breaker ``health.breakers[index]``.

    A sick shard (quarantined fallback or half-open probe: the state is
    ``padded``) still serves its own addresses -- the blocks live in its
    tree; there is nowhere else to read them -- but pads each access with
    a dummy path access, so every request presents the same two-path shape
    to the storage adversary.  Both paths draw uniformly random leaves, so
    the access sequence stays indistinguishable from the healthy one (the
    chaos harness gates this with the
    :class:`~repro.observability.LeafUniformityMonitor`).  The outcome and
    its simulated latency are fed to the breaker whatever the state; stash
    pressure (occupancy above *stash_limit*, :func:`pressure_limit`) only
    while unpadded; then the shard's degraded mode follows the state's
    ``throttled``.  Returns the shard's (local) ``(completion_cycle,
    fills)``; a padded access completes when its padding path does.
    """
    padded = health.breakers[index].state.padded
    if padded:
        # Half-opening a quarantined shard past its cooldown turns this
        # access into a probe; both states pad.
        health.begin_probe_if_ready(index)
    stats = shard.stats
    faults_before = stats.transient_faults
    start = shard.busy_until
    if now > start:
        start = now
    completion, fills = shard.demand_access(local, now, is_write)
    # The padding path and the breaker's latency both go by the
    # controller's clock -- the demand path's write-back end -- not by
    # when its block came back to the core.
    if padded:
        completion = shard.dummy_path_access(shard.busy_until)
    state = health.record_access(
        index, stats.transient_faults == faults_before, shard.busy_until - start
    )
    if not padded and len(shard.oram.stash.blocks) > stash_limit:
        state = health.record_pressure(index)
    if state.throttled != shard.degraded:
        shard.set_degraded(state.throttled)
    return completion, fills


def quarantine(
    health: HealthControlPlane, index: int, shard: ORAMBackend, reason: str
) -> None:
    """Hard-quarantine *shard* (an operator's or a supervisor's verdict:
    chaos, a dead or hung worker) and throttle it at once."""
    state = health.record_hard_failure(index, reason)
    shard.set_degraded(state.throttled)


# ------------------------------------------------------------- construction
#: Figure 6b variants: dyn_sm_nb and dyn_am_nb select static/adaptive merge
#: thresholding without breaking; bare "dyn" is the full PrORAM (adaptive
#: merge + adaptive break, the figure's am_ab).
_DYN_VARIANTS = {
    "dyn": (AdaptiveThresholdPolicy, True),
    "dyn_sm_nb": (StaticThresholdPolicy, False),
    "dyn_am_nb": (AdaptiveThresholdPolicy, False),
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
    if periodic:
        backend: ORAMBackend = PeriodicORAMBackend(
            oram, config.dram, scheme, config.timing_protection,
            fault_injector=fault_injector,
        )
    else:
        backend = ORAMBackend(oram, config.dram, scheme, fault_injector=fault_injector)
    # Spans emitted by a channel's pipeline carry the channel index and the
    # *global* address (local * stride + index).
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
) -> ShardedORAMBank:
    """Assemble an ``num_shards``-way bank (the only place one is made).

    Each channel gets its own controller -- scheme instance, tree scaled
    to its slice of the footprint, a distinct RNG fork -- from
    :func:`build_shard_backend`; ``health_policy`` (a
    :class:`~repro.health.HealthPolicy`) attaches a control plane as wide
    as the bank (one wide included: a health-supervised lone controller).
    """
    return ShardedORAMBank(
        [
            build_shard_backend(
                base_scheme,
                footprint_blocks,
                config,
                index,
                num_shards,
                observer=observer,
                fault_injector=fault_injector,
            )
            for index in range(num_shards)
        ],
        health_policy,
    )
