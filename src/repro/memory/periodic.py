"""Timing-channel protection via periodic ORAM accesses (sections 2.5, 5.6).

"In practice, periodic ORAM accesses are needed to protect the timing
channel.  [...] ORAM timing behavior is completely determined by Oint.  If
there is no pending memory request when an ORAM access needs to happen due
to periodicity, a dummy access will be issued."

``Oint`` is the public idle interval between consecutive ORAM accesses: an
access may begin ``Oint`` cycles after the previous one finished, and one
*must* begin then (real if a request is pending, dummy otherwise).  The
paper evaluates ``Oint = 100`` cycles, which keeps ORAM bandwidth almost
maximized (Figure 15).

Functional note: idle-period dummies are performed functionally (as
background evictions) only while the stash holds blocks, and at most
``MAX_FUNCTIONAL_DUMMIES_PER_GAP`` per idle gap; the rest are identical
no-op path reads/writes, charged and counted but not executed
block-by-block.  This keeps compute-bound workloads simulable.  The cap
decides which dummies move blocks, so it changes the stash contents and
with them the reported stash high-water mark; the slot grid, every issue
cycle and the dummy count do not depend on it (stash contents reach timing
only through the background evictions of a request that finds the stash
over capacity).  ``tests/test_periodic.py::TestFunctionalDummyCap`` runs
``dyn_intvl`` at cap 0, 16 and unbounded and pins both sides.

Scheduling invariant: every access -- real or dummy -- issues exactly on
the periodic grid, i.e. at a cycle congruent to 0 modulo
``path_cycles + Oint``.  Scheduling from each access's *completion* cycle
(``_next_slot = completion + Oint``) would drift the public cadence off
the grid whenever an access train ran long (PosMap misses, background
evictions, fault retries) or a request arrived mid-slot after a backlogged
burst -- precisely the data-dependent jitter the timing channel is
supposed to hide.  So the schedule only ever advances in whole periods,
and a request arriving after a slot opened waits for the next grid point
(the open slot fires as the dummy it would have been in hardware).
"""

from __future__ import annotations

from typing import Optional

from repro.config import DRAMConfig, TimingProtectionConfig
from repro.memory.backend import Answer
from repro.memory.oram_backend import ORAMBackend
from repro.oram.super_block import SuperBlockScheme


class PeriodicORAMBackend(ORAMBackend):
    """ORAM backend whose access schedule is fixed by ``Oint``.

    Takes :class:`ORAMBackend`'s arguments plus ``timing_protection``
    after the policy; ``**wiring`` passes the base class's keyword
    arguments through.
    """

    #: functional dummies per idle gap are capped; the rest are counted only
    #: (moves the stash, not the schedule -- see the module docstring)
    MAX_FUNCTIONAL_DUMMIES_PER_GAP = 16

    def __init__(
        self,
        oram,
        dram_config: DRAMConfig,
        scheme: SuperBlockScheme,
        timing_protection: TimingProtectionConfig,
        **wiring,
    ):
        super().__init__(oram, dram_config, scheme, **wiring)
        if timing_protection.interval_cycles < 0:
            raise ValueError("Oint must be non-negative")
        self.interval = timing_protection.interval_cycles
        #: the public schedule period: one path access plus the idle gap.
        #: Derived from the interconnect's *public* per-path cost -- a
        #: config constant in both models -- so the grid itself leaks
        #: nothing; streamed completions that run long simply skip to a
        #: later grid point (whole-period quantization hides the
        #: sub-period, leaf-dependent variation of the channel model).
        self._period = self.interconnect.path_cycles + self.interval
        #: cycle at which the next scheduled access slot begins; only ever
        #: advanced by whole periods, so every slot is on the grid
        self._next_slot = 0

    def _fire_slot_dummy(self, functional: bool) -> None:
        """Consume the slot at ``_next_slot`` with a dummy access."""
        if functional:
            self.oram.dummy_access(kind="periodic")
        else:
            # Identical no-op path read/write; charge and count only.
            self.oram.dummy_accesses += 1
        self.interconnect.note_slot_dummy(self._next_slot)
        recorder = self.recorder
        if recorder is not None:
            recorder.record_event(
                "periodic_dummy",
                slot=self._next_slot,
                shard=self.shard_index,
                functional=functional,
            )
        self._next_slot += self._period

    def _advance_to(self, now: int) -> None:
        """Fire the dummy accesses for every slot that elapsed unused."""
        path = self.interconnect.path_cycles
        functional_budget = self.MAX_FUNCTIONAL_DUMMIES_PER_GAP
        while self._next_slot + path <= now:
            # A slot came and went with no pending request: dummy access.
            functional = functional_budget > 0 and len(self.oram.stash) > 0
            if functional:
                functional_budget -= 1
            self._fire_slot_dummy(functional)

    def _claim_slot(self, now: int) -> int:
        """Return the grid slot this request issues at (firing missed dummies).

        A request arriving strictly after a slot opened cannot use it: in
        hardware that slot's access already began as a dummy.  Fire it and
        wait for the next grid point.
        """
        self._advance_to(now)
        if now > self._next_slot:
            self._fire_slot_dummy(len(self.oram.stash) > 0)
        return self._next_slot

    def _schedule_after(self, slot: int, completion: int) -> None:
        """Advance the schedule past an access train, staying on the grid.

        The next slot is the first grid point at least ``Oint`` after the
        train completes.  ``completion > slot`` is all that holds -- an
        open-page row hit streams a path in less than ``path_cycles`` --
        and all it takes: the ceiling still rounds up to one whole period.
        """
        assert completion > slot, (slot, completion)
        period = self._period
        gaps = -(-(completion + self.interval - slot) // period)
        self._next_slot = slot + gaps * period

    def load_counters(self, saved: dict) -> None:
        """Restore the counters, then re-derive the grid cursor.

        ``_next_slot`` is not stored: like the Equation 1 clock it follows
        from the restored ``busy_until`` -- the first grid point at least
        ``Oint`` after it, which is what :meth:`_schedule_after` left when
        the last access completed.  (Left at 0, the first request after a
        restore counted every slot since cycle 0 as a fresh dummy.)
        """
        super().load_counters(saved)
        self._next_slot = 0  # a device that never served starts on slot 0
        if self.busy_until:
            self._schedule_after(0, self.busy_until)

    def _issue(self, addr: int, now: int, run_scheme: bool, kind: str) -> tuple:
        """Every request -- demand, prefetch, dirty write-back -- issues at
        its grid slot, and the schedule resumes on the grid after it.  The
        slot is the arrival the interconnect's train sees: the controller
        went idle at least ``Oint`` before it, so no activation of the
        train starts before the slot.  The grid resumes after the
        controller's completion, never after the early data return."""
        slot = self._claim_slot(now)
        issued = self.pipeline.execute(addr, slot, run_scheme, kind)
        self._schedule_after(slot, self.busy_until)
        return issued

    def prefetch_access(self, addr: int, now: int) -> Optional[Answer]:
        # The slot is claimed *before* the base class decides whether to
        # decline: its backlog check must see the grid slot, not the
        # arrival cycle, and the slots that elapsed before the arrival
        # fire as dummies whether or not the prefetch is then taken.
        # (_issue's own claim, at the slot it is handed, is a no-op.)
        return super().prefetch_access(addr, self._claim_slot(now))

    def finalize(self, now: int) -> None:
        """Account the dummy slots up to the end of the run, then the base
        backend's housekeeping."""
        self._advance_to(now)
        super().finalize(now)
