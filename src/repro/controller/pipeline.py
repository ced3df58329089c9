"""The access function of ``ORAMBackend``: one oblivious access, start to end.

The paper states an access as five steps (section 2.2: PosMap lookup,
path read, return the block, remap, path write-back) and runs the
super-block scheme (Algorithms 1 and 2) in one gap of it -- after the path
is read, before it is written back, while every member of the super block
sits in the stash.  :meth:`AccessPipeline.execute` is that sequence as
four straight-line blocks:

1. **before the path** -- fault-model hook, stash drain + degradation
   relief (section 2.4: background evictions run before real requests),
   then the recursive position-map walk (section 2.3);
2. **path read** -- super-block membership, the path read + remap half of
   the scheme access, and the interconnect's schedule of the whole train
   (evictions, PosMap paths, the one streamed demand path);
3. **remap** -- the scheme's merge/break decision over the members that
   came from ORAM, run while they are all on-chip;
4. **write-back** -- the path write-back committing the remap.

Latency identity: the interconnect's one ``train`` call returns the
request's start and three marks -- evictions done, PosMap walk done,
demand path done -- and the differences between them are at once the
request's latency (plus ``fault_delay``) and its ``writeback`` /
``posmap`` / ``path_read`` attribution (``remap`` is on-chip and charged
nothing), so ``sum(phase_cycles.values())`` plus the cycles of the health
plane's padding paths is ``stats.busy_cycles`` by construction, and a
span's ``end - start`` is the sum of its ``phases`` plus ``fault_delay``.
What a path costs -- the paper's serial ``T`` each, or the channel model's
pipelined train -- is the interconnect's business alone.

Early data return: ``train`` also returns ``ready``, the cycle the demand
block is on chip (step 3 of section 2.2, "return the block", comes before
the write-back).  It goes back to the caller for the core and nowhere
else: the controller's clock, Equation 1, ``phase_cycles`` and the span
keep the completion.  On the flat model the two are the same cycle.

The pipeline reads nothing private of the objects it drives.  It sees the
backend's public controller surface (``fault_delay()``,
``stash_soft_limit`` / ``relieve_stash()``, ``injector``, ``busy_until``),
the ORAM's ``pending_leaf`` (the leaf ``begin_access`` parked for the
write-back) and the super-block policy's ``llc_contains`` / ``listener``
-- plain attributes, so reading one costs the access path no call.  The
Equation 1 clock (``last_request_cycle``) is the pipeline's own.  Per-phase attribution lands only in pipeline-owned
counters and ``SimResult.extra``; the pinned result fields keep flowing
into :class:`~repro.memory.backend.BackendStats`.
"""

from __future__ import annotations

from typing import Dict


class AccessPipeline:
    """Executes every access of one backend and meters the breakdown."""

    def __init__(self, backend):
        self.backend = backend
        #: phase name -> cycles attributed to that phase, plus injected
        #: fault latency under its own key (it belongs to no phase).
        self.phase_cycles: Dict[str, int] = {
            "posmap": 0,
            "path_read": 0,
            "remap": 0,
            "writeback": 0,
            "fault": 0,
        }
        #: completion cycle of the previous request: Equation 1's elapsed
        #: time is measured from here (the backend's load_counters restarts
        #: it at the restored busy_until)
        self.last_request_cycle = 0

    def execute(
        self, addr: int, now: int, run_scheme: bool, kind: str = "demand"
    ) -> tuple:
        """One full oblivious access of the request that arrived at ``now``;
        returns ``(ready_cycle, fills)``: when the demand block is on chip,
        and the addresses the scheme sends to the LLC
        (:meth:`~repro.oram.super_block.SuperBlockScheme.process_fetch`;
        ``None`` when ``run_scheme`` is false).  The controller is done at
        ``backend.busy_until``, which this call has just set.

        ``kind`` labels the request for tracing ("demand" / "prefetch" /
        "writeback"); it has no effect on the access itself.
        """
        backend = self.backend
        oram = backend.oram
        scheme = backend.scheme
        stats = backend.stats
        recorder = backend.recorder
        if recorder is not None:
            scheme_stats = scheme.stats
            merges_before = scheme_stats.merges
            breaks_before = scheme_stats.breaks
            retries_before = stats.fault_retries

        # ------------------------------------------------ 1. before the path
        fault_delay = backend.fault_delay() if backend.injector is not None else 0
        evictions = oram.drain_stash()
        if backend.stash_soft_limit is not None:
            evictions += backend.relieve_stash()
        extra = backend.posmap_hierarchy.lookup(addr)
        stats.posmap_accesses += extra

        # ------------------------------------------------------ 2. path read
        members = scheme.members_for(addr)
        blocks = oram.begin_access(members)
        # The interconnect schedules the whole train behind whatever the
        # controller was doing.  Each background eviction is a full dummy
        # path access and each PosMap miss a full path access on the
        # smaller trees: both are charged at public marks and never
        # streamed through the leaf-aware scheduler (the evictions' leaves
        # are uniform draws, the walk's belong to the recursion's access
        # pattern).  The demand path is the one access streamed bucket by
        # bucket, its read + write-back sharing one full-path pass;
        # begin_access parked the read path's leaf for the write-back, and
        # that leaf is the bucket stream being timed.
        start, evicted, walked, ready, done = backend.interconnect.train(
            now, backend.busy_until, evictions, extra, oram.pending_leaf
        )
        evict_cycles = evicted - start
        posmap_cycles = walked - evicted
        streamed = done - walked

        # ---------------------------------------------------------- 3. remap
        fills = None
        if run_scheme:
            # Members whose copies are already LLC-resident are not "coming
            # from ORAM" for the scheme's purposes (Algorithm 2); with no
            # LLC (no probe) every member is.  The singleton case (most
            # accesses) skips the comprehension frame.
            llc_contains = scheme.llc_contains
            if len(members) == 1:
                member = members[0]
                if llc_contains is not None and llc_contains(member):
                    fetched = {}
                else:
                    fetched = {member: blocks[member]}
            elif llc_contains is None:
                fetched = {member: blocks[member] for member in members}
            else:
                fetched = {
                    member: blocks[member]
                    for member in members
                    if not llc_contains(member)
                }
            fills = scheme.process_fetch(addr, members, fetched)

        # ----------------------------------------------------- 4. write-back
        oram.finish_access()

        # ------------------------------------------------------- accounting
        completion = done + fault_delay
        latency = completion - start
        phase_cycles = self.phase_cycles
        phase_cycles["posmap"] += posmap_cycles
        phase_cycles["path_read"] += streamed
        phase_cycles["writeback"] += evict_cycles
        phase_cycles["fault"] += fault_delay
        backend.busy_until = completion
        stats.busy_cycles += latency
        policy = scheme.listener
        if policy is not None:
            if evictions:
                policy.on_background_eviction(evictions)
            # A same-cycle burst (sharded batches) may land elapsed == 0;
            # the policy guards that boundary itself (Equation 1).
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
                    "phases": {
                        "posmap": posmap_cycles,
                        "path_read": streamed,
                        "remap": 0,
                        "writeback": evict_cycles,
                    },
                    "fault_delay": fault_delay,
                    "retries": stats.fault_retries - retries_before,
                    "evictions": evictions,
                    "posmap_extra": extra,
                    "stash": len(oram.stash),
                    "merges": scheme_stats.merges - merges_before,
                    "breaks": scheme_stats.breaks - breaks_before,
                }
            )
        return ready + fault_delay, fills
