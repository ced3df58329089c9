"""The ORAM memory controller backend.

Glues together the functional Path ORAM (handed in built, not yet
populated), a super block policy, the recursion/PosMap-cache model, and
the latency model, behind the standard
DRAM-replacement interface of the secure-processor literature:

* an LLC **miss** is an ORAM read access: background evictions drain an
  over-full stash first ("the ORAM controller stops serving real requests
  and issues background evictions when the stash is full", section 2.4),
  then the PosMap hierarchy walk (section 2.3) and the path access run;
  the super block scheme decides which members' copies fill the LLC and
  runs its merge/break logic;
* a **dirty LLC eviction** is an ORAM write access: a full path access that
  occupies the controller but does not stall the core;
* a **clean eviction** just drops the copy.

Requests are served strictly one at a time -- "a single ORAM access
saturates the available DRAM bandwidth [so] it brings no benefits to serve
multiple ORAM requests in parallel" (section 2.6); how the paths of one
request's train follow each other on the pins is the interconnect's
schedule (``MemoryInterconnect.train``).

A lone controller answers the bank questions of
:class:`~repro.memory.backend.MemoryBackend` itself, as a bank of width 1
(``shards == (self,)``); nothing wraps it and nothing sits on its access
path.

The controller surface the access pipeline reads is public and plain:
``fault_delay()``, ``stash_soft_limit`` / ``relieve_stash()``,
``degraded``, ``injector``, ``busy_until``; the policy wiring -- the LLC
probe and the threshold listener -- lives on the policy itself, and
:meth:`ORAMBackend.set_policy` is the one method that attaches a policy.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, List, Optional, Tuple

from repro.config import DRAMConfig
from repro.controller.pipeline import AccessPipeline
from repro.faults.injector import TransientReadError
from repro.faults.resilient import (
    backoff_cycles,
    force_evictions,
    refuse_endless_retries,
    stash_soft_limit,
)
from repro.memory.backend import Answer, BackendStats, MemoryBackend
from repro.memory.interconnect import build_interconnect
from repro.oram.checkpoint import CheckpointError, checked_counters, load_counters
from repro.oram.recursion import PosMapHierarchy
from repro.oram.super_block import SuperBlockScheme


def _field_names(stats) -> List[str]:
    """The counters a stats dataclass declares: its fields."""
    return [f.name for f in fields(stats)]


class ControllerStats(BackendStats):
    """An ORAM controller's :class:`BackendStats`, which counts each fact
    once: two of its totals are derived from counters other parts hold.
    The others start at their dataclass defaults (class attributes, 0)
    and become instance attributes when first counted.

    ``dummy_accesses`` is the ORAM's own dummy count (background, forced
    and periodic evictions and health padding alike).  ``memory_accesses``
    -- the path accesses that are not evictions -- is the PosMap walks'
    paths plus the ORAM's real accesses plus the health plane's padding
    dummies (``ORAMBackend.padding_accesses``, the one part no other counter
    holds; a padding path counts in both totals, as it always did).  Both
    stay fields, so every walk of the fields reports them; neither is
    assigned, so nothing on the access path keeps them.
    """

    #: the fields derived here rather than counted
    DERIVED = ("memory_accesses", "dummy_accesses")

    def __init__(self, backend: "ORAMBackend") -> None:
        self._backend = backend

    # (``ORAMBackend.counters`` sums the same two totals inline.)
    @property
    def memory_accesses(self) -> int:
        backend = self._backend
        return (
            self.posmap_accesses
            + backend.oram.real_accesses
            + backend.padding_accesses
        )

    @property
    def dummy_accesses(self) -> int:
        return self._backend.oram.dummy_accesses


class ORAMBackend(MemoryBackend):
    """Path ORAM behind the LLC, with a pluggable super block scheme.

    Tracing contract: ``recorder`` is ``None`` by default and the access
    pipeline checks exactly that before building a span, so tracing never
    changes which operations (and RNG draws) an access performs -- the
    golden ``SimResult`` pins this.
    ``shard_index`` labels spans when the backend serves as a channel of a
    :class:`~repro.controller.sharded.ShardedORAMBank`.

    Args:
        oram: the functional ORAM, built but not yet populated (its config
            already scaled to the workload footprint; its observer, if
            any, already attached).  The constructor populates it after the
            policy's ``initialize`` had its chance to rewrite the position
            map.
        dram_config: the physical channel the tree lives on (bandwidth and
            flat latency feed the path-access cost).
        scheme: super block policy (baseline / static / dynamic).
        fault_injector: optional :class:`repro.faults.FaultInjector`; its
            ``on_memory_access`` hook runs once per ORAM access and may
            raise transient failures or add response delay.  ``None`` (the
            default) keeps the access path bit-identical to the fault-free
            build.  Attaching one wires the retry/degradation ladder
            (:mod:`repro.faults.resilient`); an injector whose
            ``transient_rate`` is 1 is refused (``ValueError``), since
            in-place retries would never end.
    """

    def __init__(
        self,
        oram,
        dram_config: DRAMConfig,
        scheme: SuperBlockScheme,
        fault_injector=None,
    ):
        if fault_injector is not None:
            refuse_endless_retries(fault_injector.config)
        super().__init__()
        self.stats = ControllerStats(self)
        #: health-plane padding dummies (:meth:`dummy_path_access`)
        self.padding_accesses = 0
        self.oram = oram
        self.config = config = oram.config
        #: pluggable memory interconnect: the flat default is the paper's
        #: one scalar per path; the channel model streams each path's
        #: buckets across DRAM channels (DESIGN.md section 11)
        self.interconnect = build_interconnect(config, dram_config)
        self.num_blocks = oram.position_map.num_blocks
        self.posmap_hierarchy = PosMapHierarchy(
            num_hierarchies=config.num_hierarchies,
            entries_per_block=config.posmap_entries_per_block,
            cache_entries=config.posmap_cache_entries,
        )
        #: optional span sink (:mod:`repro.observability`); ``None`` is the
        #: disabled state -- the only thing the pipeline tests
        self.recorder = None
        #: channel index when owned by a ShardedORAMBank (spans carry it)
        self.shard_index = 0
        #: address interleave stride (num_shards when owned by a bank);
        #: spans report the global address ``local * stride + shard_index``
        self.addr_stride = 1
        #: health-plane degraded mode: merges throttled, prefetches shed
        #: at the door (read by the bank on every health-routed access)
        self.degraded = False
        self.scheme = scheme  # set_policy keeps the probe of the one it replaces
        self.set_policy(scheme)
        scheme.initialize()
        oram.populate()
        #: the access function every request runs (PosMap walk -> path read
        #: -> remap -> write-back) with per-phase accounting
        self.pipeline = AccessPipeline(self)
        entry_owner = next(cls for cls in type(self).__mro__ if "_issue" in vars(cls))
        if entry_owner is ORAMBackend:
            # No subclass wraps the entry: requests call the pipeline with
            # no forwarding frame (whoever replaces the pipeline rebinds it).
            self._issue = self.pipeline.execute
        #: optional callback(occupancy) sampled after every demand access
        #: (the stash-occupancy study hooks in here)
        self.stash_sampler: Optional[Callable[[int], None]] = None
        # ----------------------------------------------- fault resilience
        self.injector = fault_injector
        #: stash occupancy above which relieve_stash runs (``None``: no
        #: injector, so no ladder, and the pipeline skips the rung)
        self.stash_soft_limit: Optional[int] = None
        if fault_injector is not None:
            self.stash_soft_limit = stash_soft_limit(oram.stash.capacity)
            self._backoff_rng = oram.rng.fork(0xBACF)

    # ------------------------------------------------------------ bank of one
    @property
    def shards(self) -> Tuple["ORAMBackend", ...]:  # type: ignore[override]
        return (self,)

    def snapshot_shards(self) -> List[dict]:
        return [self.counters()]

    # ---------------------------------------------------------------- counters
    def _counted(self) -> tuple:
        """``(section, component, its declared counters)`` for the
        counter-bearing parts of this controller.

        The declarations are the components' own: the two stats dataclasses
        by their fields, ``COUNTERS`` tuples elsewhere.
        """
        oram = self.oram
        hierarchy = self.posmap_hierarchy
        return (
            ("stats", self.stats, _field_names(self.stats)),
            ("scheme_stats", self.scheme.stats, _field_names(self.scheme.stats)),
            ("posmap_hierarchy", hierarchy, hierarchy.COUNTERS),
            ("oram", oram, oram.COUNTERS),
        )

    def counters(self) -> dict:
        """Walk this controller into one plain-data dict of all it counts.

        This is the only walk over a controller's counters, and its three
        consumers read the dict and nothing else:
        :func:`repro.parallel.merge.fold_shard_snapshots` builds every
        route's ``SimResult`` from it (a standalone backend, each channel
        of a bank, each worker of the process-parallel runtime, which ships
        the dict over a queue), the backend checkpoint stores it verbatim
        as its ``"backend"`` section (:meth:`load_counters` restores from
        it), and :func:`repro.observability.collect.collect_controllers`
        registers it -- so a counter that is declared is folded, persisted
        and reported by construction.

        Plain data (picklable, JSON-able).  ``interconnect`` is the
        interconnect's full ``state_dict()``; ``fault_model`` says whether
        the retry/degradation ladder is wired at all; ``injector`` is the
        fault injector's own counters, ``None`` without one.
        """
        oram = self.oram
        stats = self.stats
        walk: dict = {
            "busy_until": self.busy_until,
            "padding_accesses": self.padding_accesses,
        }
        for section, part, names in self._counted():
            if part is stats:
                # ControllerStats' two derived totals, summed here rather
                # than through its properties (no frame per walk)
                derived = {
                    "memory_accesses": stats.posmap_accesses
                    + oram.real_accesses
                    + self.padding_accesses,
                    "dummy_accesses": oram.dummy_accesses,
                }
                walk[section] = {
                    name: derived[name] if name in derived else getattr(stats, name)
                    for name in names
                }
            else:
                walk[section] = {name: getattr(part, name) for name in names}
        walk["stash_max_occupancy"] = oram.stash.max_occupancy
        walk["phase_cycles"] = dict(self.pipeline.phase_cycles)
        walk["interconnect"] = self.interconnect.state_dict()
        walk["fault_model"] = self.injector is not None
        walk["injector"] = self.injector and self.injector.stats.as_dict()
        return walk

    def load_counters(self, saved: dict) -> None:
        """Install a :meth:`counters` dict: the checkpoint's restore half.

        Only declared names are read and written -- a key the document
        carries beyond them is ignored, never ``setattr``'d -- and a
        missing or non-integer counter raises
        :class:`~repro.oram.checkpoint.CheckpointError`.  The ``oram``
        section is not read: those counters are the ORAM's, and its own
        document (restored first) is their one source.
        Sections older documents lack are optional: without
        ``interconnect`` the scheduler state resets, without ``injector``
        a fresh injector restarts at zero (its ``injected_*`` totals would
        fall behind the restored ``BackendStats`` and ``start_after`` would
        grant a second fault-free warm-up, which is why the section exists).

        The Equation 1 clock restarts at the restored ``busy_until`` -- a
        rebooted device starts its clock now.  The policy's training state
        resets on recovery, but its first window must not be fed the whole
        simulated history as idle time.
        """
        pipeline = self.pipeline
        top = checked_counters(("busy_until", "stash_max_occupancy"), saved, "backend")
        phases = checked_counters(
            pipeline.phase_cycles, saved["phase_cycles"], "phase_cycles"
        )
        stats = checked_counters(
            ("memory_accesses", "posmap_accesses"), saved["stats"], "stats"
        )
        if "padding_accesses" in saved:
            padding = checked_counters(("padding_accesses",), saved, "backend")[
                "padding_accesses"
            ]
        else:
            # Written before padding was counted apart: it is the part of
            # the stored memory_accesses the other counters do not hold.
            padding = (
                stats["memory_accesses"]
                - stats["posmap_accesses"]
                - self.oram.real_accesses
            )
        if padding < 0:
            raise CheckpointError(
                f"backend: {padding} padding accesses (memory_accesses is "
                "below the PosMap and real path accesses)"
            )
        for section, owner, names in self._counted():
            if section == "stats":
                names = [n for n in names if n not in ControllerStats.DERIVED]
            if section != "oram":  # the ORAM document's
                load_counters(owner, names, saved[section], section)
        self.padding_accesses = padding
        self.busy_until = pipeline.last_request_cycle = top["busy_until"]
        self.oram.stash.max_occupancy = top["stash_max_occupancy"]
        pipeline.phase_cycles.update(phases)
        if saved.get("interconnect"):
            self.interconnect.load_state_dict(saved["interconnect"])
        if saved.get("injector") and self.injector is not None:
            stats = self.injector.stats
            load_counters(stats, _field_names(stats), saved["injector"], "injector")

    # ----------------------------------------------------------------- wiring
    def set_recorder(self, recorder) -> None:
        """Install (or remove, with ``None``) a span recorder.

        Disabled recorders (``enabled`` false, e.g. ``NullRecorder``) are
        normalized to ``None`` so the pipeline only ever tests
        ``is None``.
        """
        if recorder is not None and not getattr(recorder, "enabled", True):
            recorder = None
        self.recorder = recorder

    def set_llc_probe(self, probe: Callable[[int], bool]) -> None:
        """Install the LLC tag-probe callback (the system wires this after
        building the cache hierarchy).  It lives on the policy, where both
        the merge algorithm and the pipeline's LLC filter read it."""
        self.scheme.llc_contains = probe

    def set_policy(self, policy: SuperBlockScheme) -> None:
        """Attach a super block policy to this controller's ORAM.

        The one wiring method: the constructor calls it, and so does
        anything that swaps a policy.  The new policy keeps the LLC probe
        the current one holds, and its ``on_llc_hit`` -- bound to its
        prefetch tracker by ``attach`` -- is re-exported so the system's
        hit loop calls the tracker directly.  A swap after construction
        does not re-run ``initialize`` (the ORAM is populated by then).
        """
        policy.attach(self.oram, self.scheme.llc_contains)
        self.scheme = policy
        self.on_llc_hit = policy.on_llc_hit

    # ----------------------------------------------------------- health plane
    def set_degraded(self, degraded: bool) -> None:
        """Enter/leave health-plane degraded mode.

        Degradation trades throughput for stability *before* load is
        shed: super-block merges are suspended (they amplify stash
        pressure) and traditional prefetches are dropped at the door
        (they occupy the controller demand traffic needs).  Idempotent;
        the stash-relief rung below re-asserts the merge throttle so the
        two mechanisms compose instead of fighting.
        """
        self.degraded = degraded
        self.scheme.set_merge_throttled(degraded)

    def dummy_path_access(self, now: int) -> int:
        """One timed dummy path access (health-plane padding).

        A quarantined channel pads every fallback/probe access with one
        of these so real and probe traffic present a single fixed shape
        (two uniformly-drawn paths per request) -- the padding invariant
        of DESIGN.md section 10.  Charged like any background eviction:
        a full path access that occupies the channel.  Returns the
        completion cycle.
        """
        self.oram.dummy_access(kind="padding")
        self.padding_accesses += 1
        # Padding must look identical to every other dummy: a train of one
        # eviction, charged by the interconnect's rule for untracked paths
        # and never streamed through the leaf-aware scheduler (its leaf is
        # secret by construction).
        start, *_, completion = self.interconnect.train(
            now, self.busy_until, 1, 0, None
        )
        self.busy_until = completion
        self.stats.busy_cycles += completion - start
        return completion

    # ------------------------------------------------------- fault resilience
    def fault_delay(self) -> int:
        """Model the untrusted channel misbehaving on this access.

        Transient read failures are retried in place -- the timing backend
        carries no payloads, so a retry is purely a latency event: each
        attempt charges :func:`~repro.faults.resilient.backoff_cycles`
        (capped exponential, deterministic jitter) until the storage
        responds -- it always does, as the constructor refused a
        ``transient_rate`` of 1.
        Delayed responses simply add their cycles.  Returns the total
        extra latency.
        """
        injector = self.injector
        stats = self.stats
        delay = 0
        attempt = 0
        while True:
            try:
                delay += injector.on_memory_access()
                break
            except TransientReadError:
                stats.transient_faults += 1
                stats.fault_retries += 1
                delay += backoff_cycles(attempt, self._backoff_rng)
                attempt += 1
        stats.fault_delay_cycles += delay
        return delay

    def relieve_stash(self) -> int:
        """Degradation rung: merge throttling + forced background evictions.

        Called after the regular ``drain_stash`` pass.  While occupancy
        sits above the soft watermark, super-block merges are suspended
        (they amplify stash pressure) and
        :func:`~repro.faults.resilient.force_evictions` runs extra
        background evictions; both are counted, and the forced evictions
        are charged as ordinary path accesses by the caller.
        """
        oram = self.oram
        limit = self.stash_soft_limit
        throttled = len(oram.stash) > limit
        self.scheme.set_merge_throttled(throttled or self.degraded)
        if not throttled:
            return 0
        forced = force_evictions(self, limit, lambda: oram.dummy_access(kind="forced"))
        self.stats.forced_evictions += forced
        if len(oram.stash) <= limit:
            self.scheme.set_merge_throttled(self.degraded)
        return forced

    # -------------------------------------------------------------- internals
    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.oram.position_map.num_blocks:
            raise ValueError(
                f"address {addr} outside the ORAM's "
                f"{self.oram.position_map.num_blocks} blocks"
            )

    def _issue(self, addr: int, now: int, run_scheme: bool, kind: str) -> tuple:
        """The one point where a request enters the access pipeline.

        Demand misses, prefetches and dirty write-backs all issue here:
        one :meth:`~repro.controller.pipeline.AccessPipeline.execute`,
        whose train the interconnect queues behind whatever the controller
        is doing (requests are served one at a time, section 2.6).
        ``run_scheme`` is false for write-backs (Algorithms 1 and 2 only
        run on fetches); ``kind`` only labels the span when tracing is on.

        Returns ``(ready_cycle, fills)``: the fetched blocks are on chip
        at the first (early data return), the second is the LLC fill list
        of the scheme (``None`` for a write-back).  The controller is busy
        until ``self.busy_until``, which the access has just set (the same
        cycle as ``ready_cycle`` on the flat model).

        This method is the override seam: a subclass that schedules
        requests (the periodic backend) overrides it.  Where nothing does,
        the constructor binds ``self._issue`` to ``pipeline.execute`` and
        this body never runs.
        """
        return self.pipeline.execute(addr, now, run_scheme, kind)

    # ----------------------------------------------------------------- access
    def demand_access(self, addr: int, now: int, is_write: bool) -> Answer:
        # _check_addr inlined (one call per LLC miss).
        if not 0 <= addr < self.oram.position_map.num_blocks:
            raise ValueError(
                f"address {addr} outside the ORAM's "
                f"{self.oram.position_map.num_blocks} blocks"
            )
        self.stats.demand_requests += 1
        # The core resumes when the block is on chip; the next request
        # still queues behind busy_until, the write-back's end.
        issued = self._issue(addr, now, True, "demand")
        if self.stash_sampler is not None:
            self.stash_sampler(len(self.oram.stash))
        return issued

    def prefetch_access(self, addr: int, now: int) -> Optional[Answer]:
        """Traditional prefetching on ORAM (the section 5.2 experiment).

        A prefetch is a full, blocking path access.  The controller enqueues
        one as long as its backlog is under one path access deep -- and any
        demand arriving afterwards waits behind it, which is exactly why
        this loses on memory-bound programs ("ORAM requests line up in the
        ORAM controller and there is no idle time for prefetching",
        section 3.1).
        """
        if self.degraded:
            # Health-plane degraded mode: shed prefetches before they
            # occupy the controller (demand traffic keeps its slot).
            return None
        if self.busy_until > now + self.interconnect.path_cycles:
            return None
        if not 0 <= addr < self.oram.position_map.num_blocks:
            return None
        self.stats.prefetch_requests += 1
        issued = self._issue(addr, now, True, "prefetch")
        # Every line a prefetch brings in is a prefetched line, including
        # the nominal "demand" member.
        mark_prefetched = self.scheme.tracker.mark_prefetched
        for member_addr in issued[1]:
            mark_prefetched(member_addr)
        return issued

    # ----------------------------------------------------------- cache events
    def evict_line(self, addr: int, dirty: bool, now: int) -> None:
        """An LLC victim left the cache.

        Clean copies are dropped for free; dirty lines are written back
        with a full ORAM write access that occupies the controller (queued
        behind whatever it is doing) without stalling the core.
        """
        self.scheme.on_llc_evict(addr)
        if not dirty:
            return
        self._check_addr(addr)
        self.stats.write_accesses += 1
        self._issue(addr, now, False, "writeback")

    def finalize(self, now: int) -> None:
        """End-of-run housekeeping.  The tree keeps one copy of every
        bucket, pinned or not, so its treetop flush has nothing to write
        (DESIGN.md section 13) and no cycles are added to ``now``."""
        self.oram.tree.flush_treetop()
