"""Differential test: the straight-line access function vs the phase
objects it replaced, plus the latency identity it makes structural.

The reference below is the parent commit's access path, kept here (and
only here) as an oracle:

* :class:`AccessContext`, the four ``*Phase`` classes and
  :class:`ReferencePipeline` are ``controller/pipeline.py`` as it stood
  -- a context object threaded through ``run()`` / ``cycles()`` pairs,
  the phase loop written once per recorder state, and the latency formula
  a second time in ``execute`` for the clock;
* :class:`ReferencePeriodicBackend` is ``PeriodicORAMBackend`` with its
  three re-implemented LLC-side entries (``evict_line`` a copy of the base
  body with a slot claim spliced in) instead of the one ``_issue``
  override.

Under the flat interconnect that reference is unchanged: the serial train
``extra * T + streamed + evictions * T`` behind ``max(now, busy_until)``
(the parent's ``_issue`` line, which now opens :meth:`ReferencePipeline.
execute` because the production backend hands the arrival to the
interconnect instead).  Under the channel model the three ``Channel*Phase``
classes charge the pipelined train of DESIGN.md section 11, written for
clarity rather than speed: an explicit per-path event list -- one loop
iteration per path, ``max()`` spelled out -- built for the evictions and
the PosMap walk *before the demand leaf exists* (the marks are public),
then the demand path through the bank/row rules one request at a time, and
the hidden latency as its definition (the first access's array latency
minus what the request's clock saw of it).  Every path carries a read-done
event, ``B - W`` into its burst: an untracked path's is its successor's
activation, the demand path's (no earlier than its last bank's data) is
the cycle the core gets the block back -- early data return -- while the
controller's clock, the periodic grid and every phase term keep the
completion.

Both worlds are driven by the same seeded mix of demand misses,
prefetches, dirty and clean LLC evictions, LLC hits, degraded-mode
toggles and idle gaps, and must agree on every completion cycle,
``phase_cycles``, every ``BackendStats`` / scheme counter, the
interconnect summary, the emitted records (key order included), the stash
in order and the state every RNG is left in.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.controller.sharded import make_policy
from repro.faults import FaultConfig, FaultInjector
from repro.memory.oram_backend import ORAMBackend
from repro.memory.periodic import PeriodicORAMBackend
from repro.observability import InMemoryRecorder
from repro.oram.path_oram import PathORAM
from repro.utils.rng import DeterministicRng
from tests.test_interconnect_differential import offchip_plan

FOOTPRINT = 192


# ------------------------------------------------------------- the reference
class AccessContext:
    __slots__ = (
        "addr", "start", "run_scheme", "evictions", "extra", "fault_delay",
        "members", "blocks", "fills", "leaf", "streamed_cycles",
        "arrival", "busy_until", "events",
    )

    def __init__(self, addr, start, run_scheme):
        self.addr = addr
        self.start = start
        self.run_scheme = run_scheme
        self.evictions = 0
        self.extra = 0
        self.fault_delay = 0
        self.members = ()
        self.blocks = None
        self.fills = None
        self.leaf = 0
        self.streamed_cycles = 0


class PosMapPhase:
    name = "posmap"

    def run(self, backend, ctx):
        if backend.injector is not None:
            ctx.fault_delay = backend.fault_delay()
        oram = backend.oram
        stats = backend.stats
        evictions = oram.drain_stash()
        if backend.stash_soft_limit is not None:
            evictions += backend.relieve_stash()
        ctx.evictions = evictions
        # (``stats.dummy_accesses += evictions`` here: the total is derived
        # from the ORAM's dummy count now)
        ctx.extra = backend.posmap_hierarchy.lookup(ctx.addr)
        stats.posmap_accesses += ctx.extra

    def cycles(self, backend, ctx):
        return ctx.extra * backend.interconnect.path_cycles


class PathReadPhase:
    name = "path_read"

    def run(self, backend, ctx):
        ctx.members = backend.scheme.members_for(ctx.addr)
        ctx.blocks = backend.oram.begin_access(ctx.members)
        ctx.leaf = backend.oram.pending_leaf

    def cycles(self, backend, ctx):
        interconnect = backend.interconnect
        issue = ctx.start + (ctx.evictions + ctx.extra) * interconnect.path_cycles
        ctx.streamed_cycles = interconnect.path_completion(ctx.leaf, issue) - issue
        return ctx.streamed_cycles


class RemapPhase:
    name = "remap"

    def run(self, backend, ctx):
        if not ctx.run_scheme:
            return
        members = ctx.members
        blocks = ctx.blocks
        llc_contains = backend.scheme.llc_contains
        if len(members) == 1:
            member = members[0]
            fetched = {} if llc_contains(member) else {member: blocks[member]}
        else:
            fetched = {
                member: blocks[member]
                for member in members
                if not llc_contains(member)
            }
        ctx.fills = backend.scheme.process_fetch(ctx.addr, members, fetched)

    def cycles(self, backend, ctx):
        return 0


class WritebackPhase:
    name = "writeback"

    def run(self, backend, ctx):
        backend.oram.finish_access()

    def cycles(self, backend, ctx):
        return ctx.evictions * backend.interconnect.path_cycles


DEFAULT_PHASES = (PosMapPhase(), PathReadPhase(), RemapPhase(), WritebackPhase())


# ---------------------------------- the channel model's train, path by path
#: One path of a train: when its row activations issue, when it came onto
#: the request's clock (``mark``: the end of its predecessor's burst, or the
#: train's start), when its burst holds the bus and when its read half is on
#: chip (``read_done``: the successor's leaf is known -- or, for the demand
#: path, the block goes back to the core).
PathEvent = collections.namedtuple(
    "PathEvent", "kind activate mark burst_start burst_end read_done"
)


def train_constants(interconnect):
    latency = interconnect.dram.latency_cycles
    burst = interconnect.path_cycles - latency
    return latency, burst, burst // 2  # L, B, W: the write-back half


class ChannelPosMapPhase(PosMapPhase):
    """Lays out the untracked paths of the train -- every eviction, then
    every PosMap path -- from public values only: the demand leaf is not
    known yet."""

    def cycles(self, backend, ctx):
        latency, burst, overlap = train_constants(backend.interconnect)
        bus_free = ctx.busy_until
        mark = ctx.start
        activate = max(ctx.arrival, ctx.busy_until - overlap)
        ctx.events = []
        for kind in ["writeback"] * ctx.evictions + ["posmap"] * ctx.extra:
            burst_start = max(bus_free, activate + latency)
            bus_free = burst_start + burst
            read_done = burst_start + (burst - overlap)
            ctx.events.append(
                PathEvent(kind, activate, mark, burst_start, bus_free, read_done)
            )
            mark = bus_free
            activate = read_done
        backend.interconnect.hidden_latency_cycles += sum(
            latency - (event.burst_start - event.mark) for event in ctx.events
        )
        return sum(
            event.burst_end - event.mark for event in ctx.events if event.kind == "posmap"
        )


class ChannelPathReadPhase(PathReadPhase):
    """The demand path: the bank/row rules request by request from its
    activation cycle, its burst queued behind the bus."""

    def cycles(self, backend, ctx):
        interconnect = backend.interconnect
        dram = interconnect.dram
        gang = interconnect.gang
        latency, burst, overlap = train_constants(interconnect)
        if ctx.events:
            last = ctx.events[-1]
            activate = last.read_done
            bus_free = mark = last.burst_end
        else:
            activate = max(ctx.arrival, ctx.busy_until - overlap)
            bus_free = ctx.busy_until
            mark = ctx.start
        ready = []
        for bank, row in offchip_plan(interconnect, ctx.leaf):
            begin = max(activate, gang.bank_free.get(bank, 0))
            gang.bank_wait_cycles += begin - activate
            if dram.page_policy == "open" and gang.open_row.get(bank) == row:
                done = begin + dram.row_hit_cycles
                gang.row_hits += 1
            else:
                done = begin + latency
                gang.row_misses += 1
            gang.bank_free[bank] = done
            if dram.page_policy == "open":
                gang.open_row[bank] = row
            ready.append(done)
        burst_start = max(bus_free, ready[0])
        gang.bus_free = burst_start + burst
        completion = max(gang.bus_free, max(ready))
        # the block is on chip with the read half, once every bank delivered
        read_done = max(burst_start + (burst - overlap), max(ready))
        ctx.events.append(
            PathEvent("path_read", activate, mark, burst_start, completion, read_done)
        )
        interconnect.streamed_paths += 1
        interconnect.streamed_cycles_total += completion - mark
        interconnect.hidden_latency_cycles += (ready[0] - activate) - (burst_start - mark)
        interconnect.early_return_cycles += completion - read_done
        interconnect.last_completion = max(interconnect.last_completion, completion)
        ctx.streamed_cycles = completion - mark
        return ctx.streamed_cycles


class ChannelWritebackPhase(WritebackPhase):
    def cycles(self, backend, ctx):
        return sum(
            event.burst_end - event.mark
            for event in ctx.events
            if event.kind == "writeback"
        )


CHANNEL_PHASES = (
    ChannelPosMapPhase(), ChannelPathReadPhase(), RemapPhase(), ChannelWritebackPhase()
)


class ReferencePipeline:
    def __init__(self, backend, phases=DEFAULT_PHASES):
        self.backend = backend
        self.phases = tuple(phases)
        self.phase_cycles = {p.name: 0 for p in self.phases}
        self.phase_cycles["fault"] = 0
        self.requests = 0
        self.last_request_cycle = 0

    def execute(self, addr, now, run_scheme, kind="demand"):
        backend = self.backend
        start = max(now, backend.busy_until)  # the parent's ``_issue``
        ctx = AccessContext(addr, start, run_scheme)
        ctx.arrival = now
        ctx.busy_until = backend.busy_until
        phase_cycles = self.phase_cycles
        recorder = backend.recorder
        if recorder is None:
            span_phases = {}
            for phase in self.phases:
                phase.run(backend, ctx)
                span_phases[phase.name] = phase.cycles(backend, ctx)
                phase_cycles[phase.name] += span_phases[phase.name]
        else:
            scheme_stats = backend.scheme.stats
            merges_before = scheme_stats.merges
            breaks_before = scheme_stats.breaks
            retries_before = backend.stats.fault_retries
            span_phases = {}
            for phase in self.phases:
                phase.run(backend, ctx)
                cycles = phase.cycles(backend, ctx)
                phase_cycles[phase.name] += cycles
                span_phases[phase.name] = cycles
        phase_cycles["fault"] += ctx.fault_delay
        self.requests += 1
        stats = backend.stats
        interconnect = backend.interconnect
        serialized = ctx.evictions + ctx.extra
        if serialized:
            interconnect.note_untracked(serialized)
        if interconnect.model == "flat":
            latency = (
                serialized * interconnect.path_cycles
                + ctx.streamed_cycles
                + ctx.fault_delay
            )
        else:
            latency = sum(span_phases.values()) + ctx.fault_delay
        completion = start + latency
        # the core gets the block at the demand path's read-done event; the
        # flat model's opaque T has none
        if interconnect.model == "flat":
            ready = completion
        else:
            ready = ctx.events[-1].read_done + ctx.fault_delay
        backend.busy_until = completion
        # (``stats.memory_accesses += ctx.extra + 1`` here: the total is
        # derived from the PosMap and real path counts now)
        stats.busy_cycles += latency
        policy = backend.scheme.listener
        if policy is not None:
            if ctx.evictions:
                policy.on_background_eviction(ctx.evictions)
            policy.on_request(
                busy_cycles=latency,
                elapsed_cycles=completion - self.last_request_cycle,
            )
        self.last_request_cycle = completion
        if recorder is not None:
            recorder.record_span(
                {
                    "seq": recorder.next_seq(),
                    "kind": kind,
                    "addr": addr * backend.addr_stride + backend.shard_index,
                    "shard": backend.shard_index,
                    "start": start,
                    "end": completion,
                    "phases": span_phases,
                    "fault_delay": ctx.fault_delay,
                    "retries": backend.stats.fault_retries - retries_before,
                    "evictions": ctx.evictions,
                    "posmap_extra": ctx.extra,
                    "stash": len(backend.oram.stash),
                    "merges": scheme_stats.merges - merges_before,
                    "breaks": scheme_stats.breaks - breaks_before,
                }
            )
        return ready, ctx.fills

    def breakdown(self):
        return dict(self.phase_cycles)


class ReferencePeriodicBackend(PeriodicORAMBackend):
    """The three entries each claiming the slot themselves.  The grid
    resumes after the controller's clock (``busy_until``), not after the
    block the core got back early."""

    _issue = ORAMBackend._issue

    def demand_access(self, addr, now, is_write):
        slot = self._claim_slot(now)
        result = ORAMBackend.demand_access(self, addr, slot, is_write)
        self._schedule_after(slot, self.busy_until)
        return result

    def prefetch_access(self, addr, now):
        slot = self._claim_slot(now)
        result = ORAMBackend.prefetch_access(self, addr, slot)
        if result is not None:
            self._schedule_after(slot, self.busy_until)
        return result

    def evict_line(self, addr, dirty, now):
        self.scheme.on_llc_evict(addr)
        if not dirty:
            return
        self._check_addr(addr)
        self.stats.write_accesses += 1
        slot = self._claim_slot(now)
        self.pipeline.execute(addr, slot, False, "writeback")
        self._schedule_after(slot, self.busy_until)


# ------------------------------------------------------------------ building
def system_config(model, treetop):
    """Small stash, tiny PosMap cache: background evictions, stash relief
    and multi-level PosMap walks all fire within a few hundred requests."""
    config = SystemConfig()
    return dataclasses.replace(
        config,
        oram=dataclasses.replace(
            config.oram,
            stash_blocks=3,
            posmap_entries_per_block=4,
            posmap_cache_entries=3,
            treetop_levels=treetop,
        ),
        dram=dataclasses.replace(
            config.dram, model=model, num_channels=4 if model == "channel" else 1
        ),
    )


def build_backend(
    config, scheme, *, faults=False, periodic=False, traced=False, reference=False
):
    wiring = {}
    if faults:
        wiring["fault_injector"] = FaultInjector(
            FaultConfig(seed=5, transient_rate=0.1, delay_rate=0.1, delay_cycles=77)
        )
        # A two-block stash puts the soft watermark at one block, so stash
        # relief fires within the driven mix.
        config = dataclasses.replace(
            config, oram=dataclasses.replace(config.oram, stash_blocks=2)
        )
    rng = DeterministicRng(config.seed).fork(11)
    args = (
        PathORAM(config.oram.scaled_to_footprint(FOOTPRINT), rng, populate=False),
        config.dram,
        make_policy(scheme, config),
    )
    if periodic:
        cls = ReferencePeriodicBackend if reference else PeriodicORAMBackend
        backend = cls(*args, config.timing_protection, **wiring)
    else:
        backend = ORAMBackend(*args, **wiring)
    if reference:
        phases = DEFAULT_PHASES if config.dram.model == "flat" else CHANNEL_PHASES
        backend.pipeline = ReferencePipeline(backend, phases)
        # The constructor bound the entry to the pipeline it built.
        backend._issue = backend.pipeline.execute
    recorder = InMemoryRecorder() if traced else None
    backend.set_recorder(recorder)
    return backend, recorder


# ------------------------------------------------------------------- driving
def drive(backend, ops, seed=17):
    """A seeded LLC-side request mix; returns what the LLC side saw.

    ``resident`` stands in for the LLC tags: demand and prefetch fills add
    to it, evictions remove, and the backend's probe reads it -- so the
    remap block's LLC filter and Algorithm 2's neighbour checks see
    copies that are, and are not, already cached.
    """
    rng = DeterministicRng(seed)
    resident = {}
    backend.set_llc_probe(resident.__contains__)
    # Which fill is a prefetch is the tracker's prefetch bit, read per fill.
    prefetch_bit = backend.oram.position_map.prefetch_bit
    seen = []
    now = 0
    cursor = 0
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.08:
            now += rng.randint(5_000, 60_000)  # idle: periodic slots elapse unused
            continue
        now += rng.randint(0, 400)
        if rng.random() < 0.6:
            cursor = (cursor + 1) % FOOTPRINT  # sequential runs train merges
        else:
            cursor = rng.randint(0, FOOTPRINT - 1)
        if roll < 0.55:
            completion, fills = backend.demand_access(cursor, now, is_write=roll < 0.2)
            seen.append(("demand", completion, fills, [prefetch_bit(a) for a in fills]))
            resident.update(dict.fromkeys(fills))
            now = max(now, completion - rng.randint(0, 2_000))
        elif roll < 0.70:
            result = backend.prefetch_access(cursor, now)
            if result is None:
                seen.append(("prefetch", None))
            else:
                completion, fills = result
                seen.append(
                    ("prefetch", completion, fills, [prefetch_bit(a) for a in fills])
                )
                resident.update(dict.fromkeys(fills))
        elif roll < 0.90 and resident:
            victim = list(resident)[rng.randint(0, len(resident) - 1)]
            del resident[victim]
            backend.evict_line(victim, dirty=rng.random() < 0.7, now=now)
            seen.append(("evict", victim, backend.busy_until))
        elif roll < 0.93:
            # health-plane degraded mode: merges throttled, prefetches shed
            backend.set_degraded(not backend.degraded)
        elif resident:
            backend.on_llc_hit(list(resident)[rng.randint(0, len(resident) - 1)])
    backend.finalize(max(now, backend.busy_until))
    return seen


def rngs_of(backend):
    rngs = [backend.oram.rng, backend.oram.position_map._rng]
    if backend.injector is not None:
        rngs += [backend.injector.rng, backend._backoff_rng]
    return rngs


def observable_state(backend, recorder):
    return {
        "phase_cycles": list(backend.pipeline.phase_cycles.items()),
        "requests": backend.oram.real_accesses,
        "stats": dataclasses.asdict(backend.stats),
        "scheme_stats": dataclasses.asdict(backend.scheme.stats),
        "busy_until": backend.busy_until,
        "next_slot": getattr(backend, "_next_slot", None),
        "posmap": (
            backend.posmap_hierarchy.lookups,
            backend.posmap_hierarchy.cache_hits,
        ),
        "interconnect": backend.interconnect.summary(),
        "injected": backend.injector and backend.injector.stats.as_dict(),
        "records": recorder
        and [
            [(k, list(v.items()) if k == "phases" else v) for k, v in record.items()]
            for record in recorder.records
        ],
        "stash": list(backend.oram.stash.blocks.values()),
        "stash_max": backend.oram.stash.max_occupancy,
        "oram_counts": (backend.oram.real_accesses, backend.oram.dummy_accesses),
        "rng_draws": [[rng.randbelow(1 << 30) for _ in range(3)] for rng in rngs_of(backend)],
    }


# ------------------------------------------------------------------ the tests
@pytest.mark.parametrize("periodic", [False, True], ids=["plain", "periodic"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("scheme", ["oram", "stat", "dyn"])
@pytest.mark.parametrize("treetop", [0, 4])
@pytest.mark.parametrize("model", ["flat", "channel"])
def test_access_function_matches_the_phase_objects(
    model, treetop, scheme, faults, traced, periodic
):
    config = system_config(model, treetop)
    options = dict(faults=faults, periodic=periodic, traced=traced)
    new, new_recorder = build_backend(config, scheme, **options)
    old, old_recorder = build_backend(config, scheme, reference=True, **options)
    assert drive(new, ops=200) == drive(old, ops=200)
    assert observable_state(new, new_recorder) == observable_state(old, old_recorder)
    # the reference pipeline counted its requests: one per real path access
    assert old.pipeline.requests == new.oram.real_accesses


def test_the_mix_reaches_every_term():
    """The oracle comparison is only worth its matrix if the driven mix
    makes every cycle term, fault class and request kind nonzero."""
    backend, recorder = build_backend(
        system_config("channel", 4), "dyn", faults=True, periodic=True, traced=True
    )
    seen = drive(backend, ops=200)
    assert all(backend.pipeline.phase_cycles[name] for name in
               ("posmap", "path_read", "writeback", "fault"))
    stats = backend.stats
    assert stats.prefetch_requests and stats.write_accesses and stats.fault_retries
    assert stats.forced_evictions and backend.scheme.stats.merges
    assert any(kind == "prefetch" and result is None for kind, result, *_ in seen)
    assert any(record.get("event") == "periodic_dummy" for record in recorder.records)
    assert {span.kind for span in recorder.spans()} == {"demand", "prefetch", "writeback"}


REQUEST = st.tuples(
    st.sampled_from(["demand", "prefetch", "writeback", "padding"]),
    st.integers(0, FOOTPRINT - 1),
    st.integers(0, 3_000),
)


@settings(max_examples=25, deadline=None)
@given(
    requests=st.lists(REQUEST, max_size=60),
    model=st.sampled_from(["flat", "channel"]),
    scheme=st.sampled_from(["oram", "stat", "dyn"]),
    faults=st.booleans(),
)
def test_latency_identity(requests, model, scheme, faults):
    """Attributed cycles are busy cycles: the three cycle terms feed both.

    ``dummy_path_access`` (health-plane padding) is the one way a backend
    is busy outside the pipeline: a train of one eviction, so its cycles
    are counted as the interconnect charged them -- ``T`` on the flat model
    and on idle memory, the burst alone when it queued behind a real path.
    """
    backend, recorder = build_backend(
        system_config(model, 0), scheme, faults=faults, traced=True
    )
    now = padding_cycles = 0
    for kind, addr, gap in requests:
        now += gap
        if kind == "demand":
            backend.demand_access(addr, now, is_write=False)
        elif kind == "prefetch":
            backend.prefetch_access(addr, now)
        elif kind == "writeback":
            backend.evict_line(addr, dirty=True, now=now)
        else:
            start = max(now, backend.busy_until)
            padding = backend.dummy_path_access(now) - start
            assert 0 < padding <= backend.interconnect.path_cycles
            assert model == "channel" or padding == backend.interconnect.path_cycles
            padding_cycles += padding
    pipeline = backend.pipeline
    assert sum(pipeline.phase_cycles.values()) + padding_cycles == backend.stats.busy_cycles
    assert pipeline.phase_cycles["remap"] == 0
    assert recorder.span_count() == backend.oram.real_accesses
    for span in recorder.spans():
        assert list(span.phases) == ["posmap", "path_read", "remap", "writeback"]
        assert span.end - span.start == sum(span.phases.values()) + span.fault_delay
