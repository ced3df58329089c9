"""Pluggable memory interconnect: how a path access turns into cycles.

The paper times ORAM with a flat analytic model -- "a single ORAM access
saturates the available DRAM bandwidth", so every path access costs the
same ``path_cycles`` scalar (section 5.1).  That scalar used to be
multiplied directly inside the access pipeline, which made it impossible
to model intra-path memory parallelism.  This module turns the scalar
into a subsystem:

* :class:`FlatInterconnect` is the paper's model, bit-for-bit: every
  path access completes ``path_cycles`` after it issues, regardless of
  which leaf it touches.  It is the default and keeps the golden
  ``SimResult`` identical.
* :class:`ChannelInterconnect` streams a path's buckets over
  ``num_channels`` *ganged* DRAM channels: the bucket-striped
  :class:`~repro.oram.tree.PhysicalLayout` splits every bucket evenly
  over all of them, so the channels see identical request streams and
  run in lockstep.  One small bank/row scheduler (a generalization of
  the schedule in ``DRAMBackend.demand_access``) therefore stands for all
  ``C``: array accesses serialize per bank, open rows discount repeat
  hits, and each data bus carries exactly ``1/C`` of the path, so
  aggregate bandwidth -- and therefore path latency -- scales with
  channel count.

Both models schedule a whole request -- background evictions, PosMap
paths, the demand path -- through one entry, :meth:`MemoryInterconnect.
train`.  The flat model keeps the paper's serial train (every path pays
``path_cycles`` in full, one after the other).  The channel model
pipelines it: consecutive paths depend on each other only through the
leaf, known once the predecessor's read half is on chip, so a path's row
activations run under the predecessor's write-back half and a train of
``n`` paths costs ``latency + n * burst`` instead of
``n * (latency + burst)`` (DESIGN.md section 11, "The path train").  The
channel model also returns the demand block early: it is on chip once the
demand path's read half has streamed, ``burst - burst // 2`` into its
burst, and the core resumes then; the controller stays busy until the
write-back half ends (DESIGN.md section 11, "Early data return").

Obliviousness note: the *public* per-path cost (``path_cycles``, used for
the periodic grid and prefetch backpressure) and every mark of a train
short of the demand path's read-done and completion are functions of the
arrival cycle, the controller's clock, two counts and config constants in
both models.  Only those two marks of the channel model vary with the
accessed leaf, and the periodic backend's whole-period slot quantization
keeps that variation off the public timing grid (DESIGN.md section 11).

Degenerate equivalence (property-tested): one channel, more banks than
subtrees, and a closed page policy make a *lone* path on
:class:`ChannelInterconnect` cost exactly what it costs on
:class:`FlatInterconnect` -- every array access pays the full latency,
the path's one burst is a bus reservation of
``ceil(path_bytes / bytes_per_cycle)`` cycles.  Over a whole run the
controllers' busy cycles then differ by exactly the latency the pipelined
train hid (``hidden_latency_cycles``), and the run by no more than that
plus what the core gained from early data return
(``early_return_cycles``).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.config import DRAMConfig, ORAMConfig
from repro.oram.checkpoint import load_counters
from repro.oram.tree import PhysicalLayout


class MemoryInterconnect:
    """Protocol between the ORAM controller and the physical memory.

    The surface: :meth:`train` charges a request's whole path train and is
    what the controller calls, once per request (and once per padding
    dummy); :meth:`path_completion` streams one lone path (the demand path
    inside a train); :meth:`note_untracked` counts paths charged without
    streaming (inside a train, and one per periodic slot dummy);
    :meth:`path_cycles_for` is the one cost formula.

    Attributes:
        model: the config string selecting this implementation.
        path_cycles: the **public** cost of one lone path access on idle
            memory -- the value used wherever timing must stay
            data-independent without a train to schedule (periodic slot
            grid, prefetch backpressure) and the serial train's step.
        bytes_per_path: total bytes moved by one path access (read +
            write-back of every bucket).
        COUNTERS: the integer attributes an implementation counts in --
            declared once; :meth:`state_dict`, :meth:`load_state_dict` and
            through them :func:`summarize`, the registry export, the backend
            checkpoint and ``SimResult.extra`` all follow the declaration.
    """

    model = "abstract"

    #: counted by both models
    COUNTERS: Tuple[str, ...] = ("streamed_paths", "untracked_paths")
    #: reported by both models (and exported under ``interconnect.*``): the
    #: two treetop names follow from the path count (:meth:`state_dict`)
    REPORTED = COUNTERS + ("treetop_hits", "treetop_bytes_saved")

    def __init__(self, oram: ORAMConfig, dram: DRAMConfig, channels: int = 1):
        self.dram = dram
        self.num_channels = channels
        #: bytes one bucket moves per path access: Z blocks, read + write-back
        self.bucket_bytes = oram.bucket_size * oram.block_bytes * 2
        #: pinned nominal levels (the treetop cache, DESIGN.md section 13):
        #: every path streams only its off-chip suffix over the pins
        self.treetop_levels = oram.treetop_levels
        self.offchip_levels = oram.nominal_levels + 1 - oram.treetop_levels
        self.bytes_per_path = self.offchip_levels * self.bucket_bytes
        self.path_cycles = self.path_cycles_for(self.offchip_levels)
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def path_cycles_for(self, levels: int) -> int:
        """Public cost of a path access streaming ``levels`` bucket-levels:
        the idle-memory completion of a perfectly balanced path,
        ``latency + ceil(levels * bucket_bytes / (C * bytes_per_cycle))``.

        This is the one definition of the per-path cost (sections 2.6,
        5.1): the flat model is ``C = 1`` (a single ORAM access saturates
        the pins), the channel model spreads the bytes over its ``C``
        buses.  ``path_cycles == path_cycles_for(offchip_levels)``; at
        ``treetop_levels = 0`` that is the full ``nominal_levels + 1``.
        """
        if levels < 1:
            raise ValueError("a path access must stream at least one level")
        per_cycle = self.num_channels * self.dram.bytes_per_cycle
        return self.dram.latency_cycles + max(
            1, int(math.ceil(levels * self.bucket_bytes / per_cycle))
        )

    def path_completion(self, leaf: int, start: int) -> int:
        """Completion cycle of one streamed path access to ``leaf`` issued
        at ``start``: the demand path of a train, or a lone path."""
        raise NotImplementedError

    def train(self, arrival, busy_until, evictions, extra, leaf) -> Tuple[int, ...]:
        """Schedule one request's whole path train: ``evictions`` background
        evictions, then ``extra`` PosMap paths, then the demand path to
        ``leaf`` (``None``: no demand path -- a padding dummy is a train of
        one eviction).

        ``arrival`` is when the request reached the controller and
        ``busy_until`` the controller's one clock (fault delays and padding
        included).  Returns ``(start, evicted, walked, ready, completion)``:
        the cycle the train comes onto the controller's clock
        (``max(arrival, busy_until)``), the two public marks at which the
        evictions and then the PosMap walk are done, the cycle the demand
        block is on chip (early data return: the core may resume) and the
        cycle the demand path's write-back ends (the controller may not).
        The differences of ``start``, the two marks and ``completion`` are
        the request's ``writeback`` / ``posmap`` / ``path_read`` cycles;
        ``start`` and both marks depend on the arguments before ``leaf``
        and on config constants only.  Without a demand path ``ready`` is
        ``completion``.  This is the one place a path is charged.
        """
        raise NotImplementedError

    def note_untracked(self, count: int) -> None:
        """Record ``count`` path accesses charged without streaming through
        the leaf-aware scheduler (PosMap walk, evictions, dummies: their
        leaves are the recursion's or uniform draws)."""
        self.untracked_paths += count

    def note_slot_dummy(self, slot: int) -> None:
        """Record one periodic slot dummy issued at ``slot``: an untracked
        path at the public cost, done ``path_cycles`` after the slot opened
        and scheduled by no one (the grid is public)."""
        self.note_untracked(1)

    def state_dict(self) -> Dict[str, object]:
        """Everything the interconnect counts, as JSON-able plain data.

        This is the one reading of the counters: the checkpoint stores it,
        a controller's :meth:`~repro.memory.oram_backend.ORAMBackend.counters`
        walk carries it, and :meth:`summary` and the registry export
        (:func:`repro.observability.collect.register_interconnect`) are views
        of it.  ``model`` and ``path_cycles`` are configuration, carried so
        those views need nothing but the dict; a restore ignores them.
        Every charged path -- streamed or untracked -- skips the pinned
        levels, which is all ``treetop_hits`` and ``treetop_bytes_saved``
        count: they are derived here, and a restore ignores them too.
        """
        state = {"model": self.model, "path_cycles": self.path_cycles}
        state.update((name, getattr(self, name)) for name in self.COUNTERS)
        hits = self.treetop_levels * (self.streamed_paths + self.untracked_paths)
        state["treetop_hits"] = hits
        state["treetop_bytes_saved"] = hits * self.bucket_bytes
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore what :meth:`state_dict` captured (declared names only).

        A document older than one of the shared counters restarts it at
        zero: flat-model documents used to carry none.
        """
        defaults = dict.fromkeys(MemoryInterconnect.COUNTERS, 0)
        load_counters(self, self.COUNTERS, {**defaults, **state}, "interconnect")

    def summary(self) -> Dict[str, int]:
        """Scalar counters (benchmarks, ``SimResult.extra``)."""
        return summarize(self.state_dict())


#: what ``summary()`` reports, in order: ``state_dict()`` entries by name
#: (less a ``_total`` suffix); a name only the channels carry is their sum,
#: and one a model's state lacks altogether is left out -- which is all
#: that separates the flat summary from the channel one
_SUMMARY = (
    "streamed_paths",
    "untracked_paths",
    "streamed_cycles_total",
    "row_hits",
    "row_misses",
    "bank_wait_cycles",
    "hidden_latency_cycles",
    "early_return_cycles",
    "treetop_hits",
    "treetop_bytes_saved",
)


def stream_efficiency(streamed_paths: int, path_cycles: int, streamed_cycles: int) -> float:
    """``streamed_paths x T / streamed cycles``, the streamed cycles being
    the part of each demand path on its request's clock.  1.0 when every
    one is there for the public cost ``T`` -- lone paths on idle memory,
    balanced over the gang.  A path whose array latency ran under its
    predecessor's write-back is visible for its burst alone, so a fully
    pipelined stream reads ``T / burst``; row hits push the ratio up as
    well, bank or bus waits -- or paths that load the channels unevenly --
    down."""
    return streamed_paths * path_cycles / streamed_cycles if streamed_cycles else 1.0


def summarize(state: Dict[str, object]) -> Dict[str, object]:
    """The scalar view of a :meth:`MemoryInterconnect.state_dict`."""
    channels = state.get("channels")
    summary = {"channels": 1 if channels is None else len(channels)}
    for name in _SUMMARY:
        if name in state:
            summary[name.removesuffix("_total")] = state[name]
        elif channels is not None:
            summary[name] = sum(channel[name] for channel in channels)
    if channels is not None:
        summary["path_cycles"] = state["path_cycles"]
        summary["stream_efficiency"] = stream_efficiency(
            summary["streamed_paths"], state["path_cycles"], summary["streamed_cycles"]
        )
    return summary


class FlatInterconnect(MemoryInterconnect):
    """The paper's flat model: every path access costs ``path_cycles``.

    With a treetop cache (``oram.treetop_levels > 0``) the scalar is the
    *truncated* path cost: the top ``k`` levels are served from on-chip
    SRAM, so only ``nominal_levels + 1 - k`` buckets cross the pins.  At
    ``k = 0`` this is bit-identical to the untruncated model.
    """

    model = "flat"

    def path_completion(self, leaf: int, start: int) -> int:
        self.streamed_paths += 1
        return start + self.path_cycles

    def train(self, arrival, busy_until, evictions, extra, leaf):
        """The paper's serial train: every path pays ``path_cycles`` in full,
        one after the other, behind whatever the controller was doing.  The
        opaque ``T`` has no read/write split, so the demand block is ready
        when the path completes."""
        start = arrival if arrival > busy_until else busy_until
        evicted = start + evictions * self.path_cycles
        walked = evicted + extra * self.path_cycles
        if evictions or extra:
            self.note_untracked(evictions + extra)
        done = walked if leaf is None else self.path_completion(leaf, walked)
        return start, evicted, walked, done, done


class ChannelState:
    """The bank/bus state of the channel gang: per-bank timing, open-row
    tracking, a data bus -- one object, because ganged channels receive
    identical requests and so stay identical (DESIGN.md section 11).

    The scheduling rules (applied by
    :meth:`ChannelInterconnect.path_completion`) generalize
    the schedule in ``DRAMBackend.demand_access``:

    * an array access to a bank must wait for that bank's previous access
      (``bank_free``), then occupies the bank for the access latency --
      the full ``latency_cycles`` on a row miss (or under a closed page
      policy), the discounted ``row_hit_cycles`` when the open-page
      policy finds the row already open;
    * the data bus is a single shared resource: each burst waits for the
      bus to drain (``bus_free``) and then occupies it for the transfer
      time.

    Bank state is kept in dicts keyed by bank index, so "more banks than
    subtrees" configurations (the degenerate-equivalence tests) cost
    nothing.
    """

    #: the event counts; with the scheduler state they are the ``__slots__``
    COUNTERS = ("row_hits", "row_misses", "bank_wait_cycles")
    #: what one channel reports: ``requests`` is ``row_hits + row_misses``
    #: (every array access is one or the other), the last two follow from
    #: the path count (:meth:`ChannelInterconnect.state_dict`); nothing
    #: counts them
    REPORTED = ("requests",) + COUNTERS + ("bytes_moved", "busy_cycles")
    #: the integer slots (``bank_free`` / ``open_row`` are per-bank dicts)
    INT_SLOTS = ("bus_free",) + COUNTERS
    __slots__ = ("bank_free", "open_row") + INT_SLOTS

    def __init__(self):
        self.bank_free: Dict[int, int] = {}
        self.open_row: Dict[int, int] = {}
        for name in self.INT_SLOTS:
            setattr(self, name, 0)

    def state_dict(self) -> Dict[str, object]:
        """Every slot by name (JSON objects key on strings)."""
        state: Dict[str, object] = {
            "bank_free": {str(k): v for k, v in self.bank_free.items()},
            "open_row": {str(k): v for k, v in self.open_row.items()},
        }
        state.update((name, getattr(self, name)) for name in self.INT_SLOTS)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        bank_free = {int(k): int(v) for k, v in state["bank_free"].items()}
        open_row = {int(k): int(v) for k, v in state["open_row"].items()}
        load_counters(self, self.INT_SLOTS, state, "interconnect channel")
        self.bank_free = bank_free
        self.open_row = open_row


class ChannelInterconnect(MemoryInterconnect):
    """Bucket-level path streaming over ganged, bank-aware DRAM channels.

    A path access to functional leaf ``s`` is embedded into the nominal
    tree (``nominal_leaf = s << (nominal_levels - levels)``) and the one
    subtree tile it crosses per off-chip tier placed by the
    :class:`PhysicalLayout` (one array access per tile: its buckets share
    a row).  Every bucket is striped over all ``C`` channels, so each
    channel issues that same request list at the same cycle and moves
    ``1/C`` of the path's bytes (each bucket is both read and written
    back: ``2 * Z * block_bytes``) in one burst of ``path_cycles -
    latency`` cycles.  Identical requests on identical state: the channels
    run in lockstep, :attr:`gang` is the state of each, and the access
    completes when the gang has delivered.  :meth:`train` overlaps each
    path's activations with its predecessor's write-back half.

    ``bandwidth_gbps`` is per-channel pin bandwidth: the aggregate bus
    capacity grows with ``num_channels``, which is where the path-latency
    reduction comes from.  ``path_cycles`` (the public cost) is the
    idle-memory completion of a path whose banks keep up:
    ``latency + ceil(path_bytes / (C * bytes_per_cycle))`` -- at one
    channel this equals the flat model's scalar exactly.
    """

    model = "channel"

    #: the streamed-cycle total (the part of the demand paths on their
    #: requests' clock), the horizon (when the last charged path --
    #: streamed, untracked in a train, or a periodic slot dummy --
    #: completed: what the buses' occupancy is measured over), the cycles
    #: the pipelined train hid under write-back bursts and the cycles the
    #: demand blocks were on chip before their paths completed come on top
    COUNTERS = MemoryInterconnect.COUNTERS + (
        "streamed_cycles_total",
        "last_completion",
        "hidden_latency_cycles",
        "early_return_cycles",
    )

    def __init__(self, oram: ORAMConfig, dram: DRAMConfig):
        super().__init__(oram, dram, channels=dram.num_channels)
        levels = oram.nominal_levels
        self.layout = PhysicalLayout(
            levels=levels,
            num_banks=dram.num_banks,
            subtree_levels=dram.subtree_levels,
        )
        self._leaf_shift = max(0, levels - oram.levels)
        #: the layout's tiers with a tile below the treetop, root-most first:
        #: what one path activates, one ``(bank, row)`` per entry
        self._offchip_tiers = self.layout.tiers[
            self.treetop_levels // dram.subtree_levels:
        ]
        self._num_banks = dram.num_banks
        self._nominal_leaves = 1 << levels
        self._latency_cycles = dram.latency_cycles
        self._row_hit_cycles = dram.row_hit_cycles
        self._open_page = dram.page_policy == "open"
        self.gang = ChannelState()
        #: bus cycles of any path's burst on every channel
        self._burst_cycles = self.path_cycles - dram.latency_cycles
        #: W, the write-back half of a burst: how far ahead of its burst's
        #: turn a successor's activations may issue (its leaf is known once
        #: the read half is on chip)
        self._overlap_cycles = self._burst_cycles // 2
        #: B - W, the read half (ceil on odd bursts: the conservative side)
        self._read_cycles = self._burst_cycles - self._overlap_cycles
        #: when the last streamed path's read half was on chip: the demand
        #: block's early-return cycle, read by train right after the path
        self.ready = 0
        #: burst-to-burst distance in a train: what of the array latency
        #: does not fit under W stays exposed, once per path
        exposed = max(0, dram.latency_cycles - self._overlap_cycles)
        self._step_cycles = self._burst_cycles + exposed
        #: bytes of one path on channel i: a bucket's bytes dealt as evenly
        #: as C allows (the first ``bucket_bytes % C`` stripes hold one more)
        whole, spare = divmod(self.bucket_bytes, dram.num_channels)
        self._stripe_bytes = [
            self.offchip_levels * (whole + (channel < spare))
            for channel in range(dram.num_channels)
        ]

    def path_completion(self, leaf: int, start: int, head: int = 0) -> int:
        """Stream the path to ``leaf``.  ``start`` is the cycle the path
        comes onto the request's clock -- its burst's turn on the bus; its
        row activations were issued ``head`` cycles earlier, under the
        predecessor's write-back (:meth:`train`; a lone path has none).
        Returns the completion and leaves the read-done cycle in
        :attr:`ready`: the read half of the burst has streamed and every
        bank has delivered."""
        latency_cycles = self._latency_cycles
        row_hit_cycles = self._row_hit_cycles
        open_page = self._open_page
        # The bank/bus rules of ChannelState, inlined: every counter is
        # added once per path, not once per request.
        gang = self.gang
        bank_free = gang.bank_free
        open_row = gang.open_row
        activate = start - head
        first_ready = last_ready = wait = hits = misses = 0
        # The path's off-chip tiles: one per tier, by the placement rule of
        # :meth:`PhysicalLayout.path_tiles` (there spelled out once), the
        # nominal leaf range-checked.  Only the off-chip suffix (nominal
        # levels ``>= treetop_levels``) is activated: a tile entirely
        # inside the treetop makes no bank request, one straddling the
        # boundary is activated once for its off-chip part.  Nothing is
        # memoized: a per-leaf table measured slower and grew by kilobytes
        # per distinct leaf (DESIGN.md section 11).
        nominal = leaf << self._leaf_shift
        if not 0 <= nominal < self._nominal_leaves:
            raise ValueError(f"leaf {nominal} out of range [0, {self._nominal_leaves})")
        banks = self._num_banks
        for tier, shift, first_row in self._offchip_tiers:
            index = nominal >> shift
            bank = (index + tier) % banks
            row = first_row + index // banks
            begin = activate
            if bank in bank_free and bank_free[bank] > activate:
                begin = bank_free[bank]
                wait += begin - activate
            if open_page and bank in open_row and open_row[bank] == row:
                done = begin + row_hit_cycles
                hits += 1
            else:
                done = begin + latency_cycles
                misses += 1
            bank_free[bank] = done
            if open_page:
                open_row[bank] = row
            if not first_ready:
                first_ready = done
            if done > last_ready:
                last_ready = done
        # The burst streams behind the first activation's data -- not before
        # its turn, however early a head start made the data ready -- and
        # cannot finish before the last bank has delivered.
        bus_start = first_ready if first_ready > start else start
        if gang.bus_free > bus_start:
            bus_start = gang.bus_free
        completion = gang.bus_free = bus_start + self._burst_cycles
        if last_ready > completion:
            completion = last_ready
        ready = bus_start + self._read_cycles
        if last_ready > ready:
            ready = last_ready
        self.ready = ready
        self.early_return_cycles += completion - ready
        gang.row_hits += hits
        gang.row_misses += misses
        gang.bank_wait_cycles += wait
        self.streamed_paths += 1
        self.streamed_cycles_total += completion - start
        # of the first access's array latency, what ran ahead of the turn
        self.hidden_latency_cycles += head if first_ready > start else first_ready - activate
        if completion > self.last_completion:
            self.last_completion = completion
        return completion

    def train(self, arrival, busy_until, evictions, extra, leaf):
        """The pipelined train.  The only dependency between consecutive
        paths is the leaf, known once the predecessor's *read half* is on
        chip, so a path's row activations run under the predecessor's
        write-back half (``W = burst // 2`` cycles) and only its burst
        queues for the bus: ``n`` paths on idle memory cost
        ``latency + n * burst`` whenever ``W >= latency``.

        Untracked paths follow ``burst_start = max(bus_free, activate +
        latency)``, ``bus_free = burst_start + burst``, ``activate =
        burst_start + (burst - W)`` with ``bus_free`` starting at
        ``busy_until`` -- in closed form below, no per-path loop.

        The demand block is on chip with the demand path's read half --
        ``B - W`` into its burst, once every bank has delivered -- and
        that is the ``ready`` mark (early data return); the write-back half
        still holds the bus and the controller until ``completion``.
        """
        start = arrival if arrival > busy_until else busy_until
        early = busy_until - self._overlap_cycles
        activate = arrival if arrival > early else early
        evicted = walked = start
        untracked = evictions + extra
        if untracked:
            first = activate + self._latency_cycles
            if busy_until > first:
                first = busy_until
            walked = first + (untracked - 1) * self._step_cycles + self._burst_cycles
            if evictions:
                evicted = walked - extra * self._step_cycles
            activate = walked - self._overlap_cycles
            self.gang.bus_free = walked
            self.hidden_latency_cycles += untracked * self.path_cycles - (walked - start)
            if walked > self.last_completion:
                self.last_completion = walked
            self.note_untracked(untracked)
        if leaf is None:
            return start, evicted, walked, walked, walked
        done = self.path_completion(leaf, walked, walked - activate)
        return start, evicted, walked, self.ready, done

    def note_slot_dummy(self, slot: int) -> None:
        """A slot dummy also moves the horizon: it completes at the slot
        plus the public cost (its burst occupies every bus like any path's)."""
        self.note_untracked(1)
        if slot + self.path_cycles > self.last_completion:
            self.last_completion = slot + self.path_cycles

    def _geometry(self) -> Dict[str, object]:
        """What bank/row numbers in a checkpoint mean; must match to restore."""
        layout = self.layout
        return {
            "layout": "striped",
            "levels": layout.levels,
            "channels": self.num_channels,
            "banks": layout.num_banks,
            "subtree_levels": layout.subtree_levels,
            "treetop_levels": self.treetop_levels,
            "page_policy": self.dram.page_policy,
        }

    def state_dict(self) -> Dict[str, object]:
        """The gang is reported once per channel.  Its requests are its
        array accesses, each a row hit or a miss.  What a channel's bus
        carried follows from the path count: every path the controller
        charges -- streamed, or untracked at the public cost -- occupies
        each bus for the one burst and crosses it with that channel's
        stripe."""
        state = super().state_dict()
        state["geometry"] = self._geometry()
        gang = self.gang.state_dict()
        gang["requests"] = gang["row_hits"] + gang["row_misses"]
        paths = self.streamed_paths + self.untracked_paths
        gang["busy_cycles"] = paths * self._burst_cycles
        state["channels"] = [
            dict(gang, bytes_moved=paths * stripe) for stripe in self._stripe_bytes
        ]
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        saved = state.get("channels", [])
        if len(saved) != self.num_channels:
            raise ValueError(
                f"checkpoint has {len(saved)} channels, config has "
                f"{self.num_channels}"
            )
        # Checkpoints older than the geometry entry load unchecked.
        configured = self._geometry()
        if state.get("geometry", configured) != configured:
            raise ValueError(
                f"checkpoint DRAM geometry {state['geometry']} does not match "
                f"the configured {configured}"
            )
        if any(
            channel.get(slot) != saved[0].get(slot)
            for channel in saved[1:]
            for slot in ChannelState.__slots__
        ):
            raise ValueError(
                "checkpoint channels differ: ganged channels run in lockstep "
                "(a document of the old tile-per-channel layout?)"
            )
        # A document older than the pipelined train hid nothing yet, one
        # older than early data return returned nothing early.
        super().load_state_dict(
            {"hidden_latency_cycles": 0, "early_return_cycles": 0, **state}
        )
        self.gang.load_state_dict(saved[0])


def build_interconnect(oram: ORAMConfig, dram: DRAMConfig) -> MemoryInterconnect:
    """Instantiate the interconnect selected by ``dram.model``."""
    if dram.model == "flat":
        return FlatInterconnect(oram, dram)
    if dram.model == "channel":
        return ChannelInterconnect(oram, dram)
    raise ValueError(f"unknown DRAM model {dram.model!r}")
