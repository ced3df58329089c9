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
  ``DRAMBackend._schedule``) therefore stands for all ``C``: array
  accesses serialize per bank, open rows discount repeat hits, and each
  data bus carries exactly ``1/C`` of the path, so aggregate bandwidth
  -- and therefore path latency -- scales with channel count.

Obliviousness note: the *public* per-path cost (``path_cycles``, used for
the periodic grid, PosMap walk charges, background evictions, and
prefetch backpressure) stays data-independent in both models.  Only the
streamed completion of the channel model varies with the accessed leaf,
and the periodic backend's whole-period slot quantization keeps that
variation off the public timing grid (DESIGN.md section 11).

Degenerate equivalence (property-tested): one channel, more banks than
subtrees, and a closed page policy make :class:`ChannelInterconnect`
reproduce :class:`FlatInterconnect` exactly -- every array access pays
the full latency, the path's one burst is a bus reservation of
``ceil(path_bytes / bytes_per_cycle)`` cycles, and the single channel
serializes just like the flat model's saturated pin interface.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.config import DRAMConfig, ORAMConfig
from repro.oram.checkpoint import load_counters
from repro.oram.tree import PhysicalLayout


class MemoryInterconnect:
    """Protocol between the ORAM controller and the physical memory.

    Attributes:
        model: the config string selecting this implementation.
        path_cycles: the **public** cost of one path access -- the value
            used wherever timing must stay data-independent (periodic
            slot grid, PosMap recursion charges, background evictions,
            dummy accesses, prefetch backpressure).
        bytes_per_path: total bytes moved by one path access (read +
            write-back of every bucket).
        COUNTERS: the integer attributes an implementation counts in --
            declared once; :meth:`state_dict`, :meth:`load_state_dict` and
            through them :func:`summarize`, the registry export, the backend
            checkpoint and ``SimResult.extra`` all follow the declaration.
    """

    model = "abstract"

    #: counted by both models (and exported under ``interconnect.*``)
    COUNTERS: Tuple[str, ...] = (
        "streamed_paths",
        "untracked_paths",
        "treetop_hits",
        "treetop_bytes_saved",
    )

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
        """Completion cycle of a path access to ``leaf`` issued at ``start``."""
        raise NotImplementedError

    def note_untracked(self, count: int) -> None:
        """Record ``count`` path accesses charged at the public nominal cost
        without streaming (PosMap walk, evictions, dummies)."""
        self.untracked_paths += count
        self.treetop_hits += self.treetop_levels * count
        self.treetop_bytes_saved += self.treetop_levels * self.bucket_bytes * count

    def state_dict(self) -> Dict[str, object]:
        """Everything the interconnect counts, as JSON-able plain data.

        This is the one reading of the counters: the checkpoint stores it,
        a controller's :meth:`~repro.memory.oram_backend.ORAMBackend.counters`
        walk carries it, and :meth:`summary` and the registry export
        (:func:`repro.observability.collect.register_interconnect`) are views
        of it.  ``model`` and ``path_cycles`` are configuration, carried so
        those views need nothing but the dict; a restore ignores them.
        """
        state = {"model": self.model, "path_cycles": self.path_cycles}
        state.update((name, getattr(self, name)) for name in self.COUNTERS)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore what :meth:`state_dict` captured (declared names only).

        A document older than one of the shared counters restarts it at
        zero: flat-model documents used to carry none, channel-model ones
        predating the treetop lack its two.
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
    "treetop_hits",
    "treetop_bytes_saved",
)


def stream_efficiency(streamed_paths: int, path_cycles: int, streamed_cycles: int) -> float:
    """``streamed_paths x T / streamed cycles``: the share of the streamed
    time a perfectly balanced path needs.  1.0 when every streamed path
    completes at the public cost ``T``; row hits push it above, bank or
    bus waits -- or paths that load the channels unevenly -- below."""
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
        self.treetop_hits += self.treetop_levels
        self.treetop_bytes_saved += self.treetop_levels * self.bucket_bytes
        return start + self.path_cycles


class ChannelState:
    """The bank/bus state of the channel gang: per-bank timing, open-row
    tracking, a data bus -- one object, because ganged channels receive
    identical requests and so stay identical (DESIGN.md section 11).

    The scheduling rules (applied by
    :meth:`ChannelInterconnect.path_completion`) generalize
    ``DRAMBackend._schedule``:

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
    COUNTERS = ("requests", "row_hits", "row_misses", "bank_wait_cycles")
    #: what one channel reports: the two extra names follow from the path
    #: count (:meth:`ChannelInterconnect.state_dict`), nothing counts them
    REPORTED = COUNTERS + ("bytes_moved", "busy_cycles")
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
    channel issues that same request list at ``start`` and moves ``1/C``
    of the path's bytes (each bucket is both read and written back:
    ``2 * Z * block_bytes``) in one burst of ``path_cycles - latency``
    cycles.  Identical requests on identical state: the channels run in
    lockstep, :attr:`gang` is the state of each, and the access completes
    when the gang has delivered.

    ``bandwidth_gbps`` is per-channel pin bandwidth: the aggregate bus
    capacity grows with ``num_channels``, which is where the path-latency
    reduction comes from.  ``path_cycles`` (the public cost) is the
    idle-memory completion of a path whose banks keep up:
    ``latency + ceil(path_bytes / (C * bytes_per_cycle))`` -- at one
    channel this equals the flat model's scalar exactly.
    """

    model = "channel"

    #: the streamed-cycle total and the scheduling horizon come on top
    COUNTERS = MemoryInterconnect.COUNTERS + (
        "streamed_cycles_total",
        "last_completion",
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
        self._latency_cycles = dram.latency_cycles
        self._row_hit_cycles = dram.row_hit_cycles
        self._open_page = dram.page_policy == "open"
        self.gang = ChannelState()
        #: bus cycles of any path's burst on every channel
        self._burst_cycles = self.path_cycles - dram.latency_cycles
        #: bytes of one path on channel i: a bucket's bytes dealt as evenly
        #: as C allows (the first ``bucket_bytes % C`` stripes hold one more)
        whole, spare = divmod(self.bucket_bytes, dram.num_channels)
        self._stripe_bytes = [
            self.offchip_levels * (whole + (channel < spare))
            for channel in range(dram.num_channels)
        ]

    def _plan(self, leaf: int) -> List[Tuple[int, int]]:
        """The request list every channel issues for the path to a
        functional leaf: one ``(bank, row)`` per off-chip tier.

        Only the off-chip suffix of the path (nominal levels
        ``>= treetop_levels``) is planned: subtree tiles that lie entirely
        inside the treetop contribute no bank request at all, and a tile
        straddling the boundary is activated once for its off-chip part.
        One request per tile is all the coalescing there is to do: the
        tile-to-``(bank, row)`` map is injective.  Plans are recomputed,
        not memoized: a per-leaf table measured slower and grew by
        kilobytes per distinct leaf (DESIGN.md section 11).
        """
        return self.layout.path_tiles(leaf << self._leaf_shift, self.treetop_levels)

    def path_completion(self, leaf: int, start: int) -> int:
        latency_cycles = self._latency_cycles
        row_hit_cycles = self._row_hit_cycles
        open_page = self._open_page
        # The bank/bus rules of ChannelState, inlined: every counter is
        # added once per path, not once per request.
        gang = self.gang
        bank_free = gang.bank_free
        open_row = gang.open_row
        first_ready = last_ready = wait = hits = misses = 0
        for bank, row in self._plan(leaf):
            begin = start
            if bank in bank_free and bank_free[bank] > start:
                begin = bank_free[bank]
                wait += begin - start
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
        # The burst streams behind the first activation's data but
        # cannot finish before the last bank has delivered.
        bus_free = gang.bus_free
        bus_start = bus_free if bus_free > first_ready else first_ready
        completion = gang.bus_free = bus_start + self._burst_cycles
        if last_ready > completion:
            completion = last_ready
        gang.requests += hits + misses
        gang.row_hits += hits
        gang.row_misses += misses
        gang.bank_wait_cycles += wait
        self.streamed_paths += 1
        self.streamed_cycles_total += completion - start
        self.treetop_hits += self.treetop_levels
        self.treetop_bytes_saved += self.treetop_levels * self.bucket_bytes
        if completion > self.last_completion:
            self.last_completion = completion
        return completion

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
        """The gang is reported once per channel.  What a channel's bus
        carried follows from the path count: every path the controller
        charges -- streamed, or untracked at the public cost -- occupies
        each bus for the one burst and crosses it with that channel's
        stripe."""
        state = super().state_dict()
        state["geometry"] = self._geometry()
        gang = self.gang.state_dict()
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
        super().load_state_dict(state)
        self.gang.load_state_dict(saved[0])


def build_interconnect(oram: ORAMConfig, dram: DRAMConfig) -> MemoryInterconnect:
    """Instantiate the interconnect selected by ``dram.model``."""
    if dram.model == "flat":
        return FlatInterconnect(oram, dram)
    if dram.model == "channel":
        return ChannelInterconnect(oram, dram)
    raise ValueError(f"unknown DRAM model {dram.model!r}")
