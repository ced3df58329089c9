"""The secure-processor system: in-order core + caches + memory backend.

This is the reproduction's stand-in for the paper's Graphite setup
(section 5.1, Table 1): a 1 GHz in-order core whose memory references come
from a trace, a 32 KB L1, a 512 KB shared LLC, and either an insecure DRAM
or a Path ORAM (baseline / static super block / PrORAM) behind it.  The
core blocks on every LLC miss until the backend's completion cycle -- the
paper's cores are in-order, so memory latency is fully exposed.

Construction is by factory: :meth:`SecureSystem.build` maps a scheme name
("dram", "oram", "stat", "dyn", and the prefetching/periodic variants used
by specific figures) onto the right backend assembly, so benchmarks read
exactly like the paper's legends.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.config import SystemConfig
from repro.controller.sharded import ORAM_SCHEMES, build_bank
from repro.core.thresholds import ThresholdPolicy
from repro.memory.backend import MemoryBackend
from repro.memory.dram import DRAMBackend
from repro.observability.collect import collect_system
from repro.observability.recorder import attach_recorder
from repro.parallel.merge import fold_backend
from repro.prefetch.stream import StreamPrefetcher
from repro.sim.results import SimResult
from repro.sim.trace import Trace


@dataclass(frozen=True)
class SchemeLabel:
    """A parsed scheme label, the one reading of :attr:`GRAMMAR`.

    ``base`` is ``dram`` or a super-block policy of
    :data:`~repro.controller.sharded.ORAM_SCHEMES`; ``prefetcher`` the
    ``_pre`` suffix (a core-side stream prefetcher, Figure 5);
    ``periodic`` the ``_intvl`` suffix (Figure 15, ORAM only).
    """

    base: str
    prefetcher: bool = False
    periodic: bool = False

    GRAMMAR = "<base>[_pre][_intvl]"
    BASES = ("dram",) + ORAM_SCHEMES

    @property
    def is_dram(self) -> bool:
        return self.base == "dram"

    @property
    def is_base_oram(self) -> bool:
        """No suffix, not DRAM: what the serving tier and a shard worker run."""
        return not (self.is_dram or self.prefetcher or self.periodic)

    @classmethod
    def parse(cls, label: str) -> "SchemeLabel":
        """Read a label; ``ValueError`` (one line) on anything else."""
        periodic = label.endswith("_intvl")
        base = label[: -len("_intvl")] if periodic else label
        prefetcher = base.endswith("_pre")
        base = base[: -len("_pre")] if prefetcher else base
        if base not in cls.BASES:
            raise ValueError(
                f"unknown scheme '{label}' (grammar: {cls.GRAMMAR}, base one "
                f"of {', '.join(cls.BASES)}; see `repro list`)"
            )
        if periodic and base == "dram":
            raise ValueError("periodic accesses only apply to ORAM backends")
        return cls(base, prefetcher, periodic)


def build_backend(
    scheme: str,
    footprint_blocks: int,
    config: SystemConfig,
    *,
    policy: Optional[ThresholdPolicy] = None,
    observer=None,
    fault_injector=None,
    num_shards: int = 1,
    health_policy=None,
) -> Tuple[MemoryBackend, Optional[StreamPrefetcher]]:
    """Build the memory side of one of the paper's configurations.

    The one label -> {DRAM, ORAM bank} + core-side prefetcher dispatch;
    returns ``(backend, prefetcher)`` for a tile (:class:`SecureSystem` or
    a subclass) to be wired around.  Every ORAM label is built by
    :func:`~repro.controller.sharded.build_bank`; a bank one wide with no
    health plane is handed back as its one controller.

    Args:
        scheme: a :class:`SchemeLabel` label --

            * ``dram`` -- insecure DRAM baseline;
            * ``oram`` -- baseline Path ORAM (unified recursion);
            * ``stat`` -- static super block scheme;
            * ``dyn`` -- PrORAM (dynamic super blocks, Figure 6b's
              ``am_ab``), plus the Figure 6b variants ``dyn_sm_nb`` /
              ``dyn_am_nb`` and the strided extension ``dyn_strided``;
            * any of them suffixed ``_pre`` -- plus a traditional
              stream prefetcher (Figure 5);
            * any of the ORAM variants suffixed ``_intvl`` -- wrapped
              in periodic accesses (Figure 15), one ``Oint`` grid per
              shard.
        footprint_blocks: workload footprint; the functional tree is
            scaled to hold it at the configured utilization.
        config: system configuration.
        policy: threshold policy for ``dyn`` (default: adaptive, C=1);
            stateful, so refused on a bank wider than one.
        observer: optional adversary observer for ORAM variants.
        fault_injector: optional :class:`repro.faults.FaultInjector`
            attached to ORAM backends (storage fault modelling);
            rejected for ``dram``.
        num_shards: channel-interleave the ORAM over this many
            independent controller instances
            (:class:`~repro.controller.sharded.ShardedORAMBank`).
            The default ``1`` is the paper's lone controller.
        health_policy: optional :class:`repro.health.HealthPolicy`;
            attaches a per-shard circuit-breaker control plane to the
            bank (at ``num_shards == 1`` the bank of one is kept, as a
            shard worker runs it).  ``None`` (the default) leaves the
            access path untouched.
    """
    label = SchemeLabel.parse(scheme)
    prefetcher = StreamPrefetcher(config.prefetch) if label.prefetcher else None
    if label.is_dram:
        if fault_injector is not None:
            raise ValueError("fault injection models ORAM storage, not DRAM")
        if num_shards != 1 or health_policy is not None:
            raise ValueError(
                "sharded banks and their health plane model ORAM channels, "
                "not DRAM"
            )
        return DRAMBackend(config.dram, config.oram.block_bytes), prefetcher
    bank = build_bank(
        label.base, footprint_blocks, config, num_shards, policy=policy,
        periodic=label.periodic, health_policy=health_policy,
        observer=observer, fault_injector=fault_injector,
    )
    if bank.num_shards == 1 and bank.health is None:
        # A bank of one with no plane is its controller: the interleave
        # is the identity, so the paper's machine drives the shard itself.
        return bank.shards[0], prefetcher
    return bank, prefetcher


def _interleave(traces: Sequence[Trace], clocks: List[int]) -> Iterator[Tuple[int, int, int, int]]:
    """``(core, gap, addr, is_write)`` of N traces in simulated-time order.

    At every step the core whose next reference issues earliest goes next
    (ties to the lower core), so memory-bound cores queue behind each other
    at the shared backend.  A core's issue time is its clock in ``clocks``
    plus the entry's gap, read when the generator resumes -- by then the
    consuming loop has written the clock of the reference just yielded.
    """
    streams = [zip(trace.gaps, trace.addrs, trace.writes) for trace in traces]
    heap = []
    for core, stream in enumerate(streams):
        head = next(stream, None)
        if head is not None:
            heap.append((clocks[core] + head[0], core, head))
    heapq.heapify(heap)
    while heap:
        _, core, (gap, addr, is_write) = heapq.heappop(heap)
        yield core, gap, addr, is_write
        head = next(streams[core], None)
        if head is not None:
            heapq.heappush(heap, (clocks[core] + head[0], core, head))


class SecureSystem:
    """One tile: cores + private L1s + shared LLC + memory backend.

    The tile is built once, here: this constructor is the only place the
    LLC tag probe (Algorithm 1) is wired to a backend.  It is driven by one
    reference loop, :meth:`_replay`, which is also where every LLC victim
    a fill returns reaches the backend (Algorithm 2, dirty write-backs):
    :meth:`run` feeds it one core, and
    :class:`~repro.sim.multicore.MultiCoreSystem` feeds it ``num_cores``
    interleaved ones.
    """

    def __init__(
        self,
        config: SystemConfig,
        backend: MemoryBackend,
        label: str,
        prefetcher: Optional[StreamPrefetcher] = None,
        num_cores: int = 1,
    ):
        self.config = config
        self.backend = backend
        self.label = label
        self.prefetcher = prefetcher
        self.hierarchy = CacheHierarchy(config.l1, config.llc, num_cores)
        # hierarchy.contains is a pure delegation to llc.contains; hand the
        # backend the LLC's bound method directly (the merge algorithm
        # probes it on every miss).  A sharded bank wraps the probe with
        # each channel's address translation; DRAM ignores it.
        backend.set_llc_probe(self.hierarchy.llc.contains)
        #: the tile clock: where the next run starts its cores
        self._now = 0
        #: prefetched lines not yet usable: addr -> fill completion cycle
        self._pending_fills = {}
        #: optional miss-stream tap: while this is a list, every demand
        #: access the backend sees is appended as ``(addr, now, is_write)``
        #: in issue order -- exactly the request stream a
        #: :class:`~repro.parallel.runtime.ParallelShardRuntime` replays
        #: (:func:`~repro.sim.multicore.capture_miss_stream` installs one).
        self.request_capture: Optional[list] = None

    # ----------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        scheme: str,
        footprint_blocks: int,
        config: Optional[SystemConfig] = None,
        **wiring,
    ) -> "SecureSystem":
        """Assemble a single-core system for one of the paper's
        configurations: :func:`build_backend` (which documents ``scheme``
        and every ``wiring`` keyword) behind a fresh tile."""
        config = config or SystemConfig()
        backend, prefetcher = build_backend(scheme, footprint_blocks, config, **wiring)
        return cls(config, backend, label=scheme, prefetcher=prefetcher)

    # ---------------------------------------------------------- observability
    def attach_recorder(self, recorder):
        """Enable structured tracing on the backend (``None`` disables).

        Only ORAM backends (single controller or sharded bank) emit spans;
        attaching to a DRAM baseline is a no-op.  Returns the recorder.
        """
        return attach_recorder(self.backend, recorder)

    def metrics(self, registry=None):
        """Snapshot every component counter into a ``MetricsRegistry``."""
        return collect_system(self, registry)

    # ------------------------------------------------------------------- run
    def run(self, trace: Trace, warmup_entries: int = 0) -> SimResult:
        """Replay a trace on core 0 to completion and collect every statistic.

        Args:
            trace: the workload.
            warmup_entries: leading entries simulated but excluded from the
                reported counters and cycle count.  The paper's runs are
                long enough that cache/ORAM warmup (and PrORAM's merge
                training) is negligible; short traces approximate that by
                measuring only the steady-state window.

        The replay starts at the tile clock (0 on a fresh tile), so a
        second ``run`` continues where the first one ended.
        """
        return self._replay([trace], warmup_entries)[0]

    def _replay(self, traces: Sequence[Trace], warmup_entries: int = 0) -> List[SimResult]:
        """The one reference loop: trace ``i`` runs on core ``i``; one
        result per core, each reporting the shared backend's totals.

        The loop walks ``(core, gap, addr, is_write)`` with per-core clocks
        and hit counts in lists, every core starting at the tile clock.
        One core is fed by ``zip(repeat(0), gaps, addrs, writes)`` over the
        trace's columns -- C iterators, so the body
        runs with no call per reference beyond the hierarchy and backend
        entry points (bound to locals here; the benchmark traces miss the
        LLC on most references).  N cores are fed by :func:`_interleave`.
        ``warmup_entries`` counts references over all cores.
        """
        hierarchy = self.hierarchy
        backend = self.backend
        prefetcher = self.prefetcher
        recorder = backend.recorder
        if recorder is not None:
            recorder.record_event(
                "run_start",
                workload="+".join(trace.name for trace in traces),
                scheme=self.label,
                entries=sum(len(trace) for trace in traces),
                start_cycle=self._now,
            )
        hierarchy_access = hierarchy.access
        fill_demand = hierarchy.fill_demand
        fill_prefetch = hierarchy.fill_prefetch
        demand_access = backend.demand_access
        evict_line = backend.evict_line
        on_llc_hit = backend.on_llc_hit
        pending = self._pending_fills
        l1_hit_latency = self.config.l1.hit_latency
        capture = self.request_capture
        cores = len(traces)
        clocks = [self._now] * cores
        l1_hits = [0] * cores
        llc_hits = [0] * cores
        misses = [0] * cores
        if cores == 1:
            trace = traces[0]
            refs = zip(repeat(0), trace.gaps, trace.addrs, trace.writes)
        else:
            refs = _interleave(traces, clocks)
        warmup_snapshot = None
        index = 0
        for core, gap, addr, is_write in refs:
            if warmup_entries and index == warmup_entries:
                warmup_snapshot = self._collect_cores(traces, clocks, l1_hits, llc_hits, misses)
            index += 1
            now = clocks[core] + gap
            is_write = bool(is_write)
            outcome = hierarchy_access(addr, is_write, core)
            level = outcome.level
            if level != "miss":
                # A hit on a still-in-flight prefetched line -- whichever
                # core's prefetch brought it in -- waits for the fill to
                # actually arrive (MSHR-hit semantics): prefetched data is
                # not usable before its access completes.  Only a
                # traditional prefetcher records such fills.
                if pending:
                    ready = pending.pop(addr, None)
                    if ready is not None and ready > now:
                        now = ready
                clocks[core] = now + outcome.latency
                if level == "l1":
                    l1_hits[core] += 1
                else:
                    llc_hits[core] += 1
                    on_llc_hit(addr)
                continue
            # ----- full miss: the in-order core stalls on the shared backend.
            misses[core] += 1
            if capture is not None:
                capture.append((addr, now, is_write))
            completion, fills = demand_access(addr, now, is_write)
            # One pass over the demand's fills and, with a traditional
            # prefetcher, one over the lines its prefetches bring in
            # (issued once the demand completes, evicting then too):
            # prefetches never stall the core, they only occupy the backend.
            demand, at = addr, now
            while True:
                for fill_addr in fills:
                    if fill_addr == demand:
                        victim = fill_demand(demand, is_write, core)
                    else:
                        victim = fill_prefetch(fill_addr)
                    if victim is not None:
                        # The line left the LLC: an in-flight fill of it is
                        # dead (a re-fetch must not wait on its cycle, and
                        # the dict stays bounded by the LLC), and the
                        # backend takes it back, clean or dirty.
                        victim, dirty = victim
                        if victim in pending:
                            del pending[victim]
                        evict_line(victim, dirty, at)
                if prefetcher is None or demand is None:
                    break
                demand, at = None, completion + l1_hit_latency
                fills = self._issue_prefetches(addr, at)
            now = clocks[core] = completion + l1_hit_latency
        self._now = now = max(clocks)
        backend.finalize(now)
        if recorder is not None:
            recorder.record_event(
                "run_end",
                cycles=now,
                llc_misses=sum(misses),
                l1_hits=sum(l1_hits),
                llc_hits=sum(llc_hits),
            )
        final = self._collect_cores(traces, clocks, l1_hits, llc_hits, misses)
        if warmup_snapshot is not None:
            final = [SimResult.delta(*pair) for pair in zip(final, warmup_snapshot)]
        return final

    def _issue_prefetches(self, miss_addr: int, now: int) -> Iterator[int]:
        """Feed the traditional prefetcher and issue its predictions at
        ``now``; yields each line a prefetch brings in, for :meth:`_replay`
        to fill.

        The generator resumes only once the tile has filled that line, so
        the next candidate's LLC probe sees it, and only then records the
        fill as in flight until its prefetch completes.
        """
        assert self.prefetcher is not None
        for candidate in self.prefetcher.on_demand_miss(miss_addr):
            if not 0 <= candidate < self.backend.num_blocks:
                continue
            if self.hierarchy.contains(candidate):
                continue
            issued = self.backend.prefetch_access(candidate, now)
            if issued is None:
                continue
            completion, fills = issued
            for fill_addr in fills:
                yield fill_addr
                self._pending_fills[fill_addr] = completion

    def _collect_cores(self, traces, clocks, l1_hits, llc_hits, misses) -> List[SimResult]:
        return [
            self._collect(trace, now, l1, llc, miss, l1 + llc + miss)
            for trace, now, l1, llc, miss in zip(traces, clocks, l1_hits, llc_hits, misses)
        ]

    def _collect(
        self,
        trace: Trace,
        now: int,
        l1_hits: int,
        llc_hits: int,
        misses: int,
        entries_processed: int,
    ) -> SimResult:
        return fold_backend(
            SimResult(
                workload=trace.name,
                scheme=self.label,
                cycles=now,
                trace_entries=entries_processed,
                l1_hits=l1_hits,
                llc_hits=llc_hits,
                llc_misses=misses,
            ),
            self.backend,
        )
