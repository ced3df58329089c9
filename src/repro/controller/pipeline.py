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
   the scheme access, and the interconnect's streamed completion of that
   one path;
3. **remap** -- the scheme's merge/break decision over the members that
   came from ORAM, run while they are all on-chip;
4. **write-back** -- the path write-back committing the remap.

Latency identity: a request's latency is ``extra * T + streamed +
evictions * T + fault_delay`` (``T`` = the interconnect's public per-path
cost), and those same three cycle terms are its ``posmap`` / ``path_read``
/ ``writeback`` attribution (``remap`` is on-chip and charged nothing), so
``sum(phase_cycles.values())`` plus the health plane's padding paths is
``stats.busy_cycles`` by construction, and a span's ``end - start`` is
the sum of its ``phases`` plus ``fault_delay``.

This is the backend's own access path, not a layer apart from it: it
reads the backend's fault/relief helpers, LLC probe and policy listener
directly, and the leaf ``PathORAM.begin_access`` parked for the
write-back.  Per-phase attribution lands only in pipeline-owned counters
and ``SimResult.extra``; the pinned result fields keep flowing into
:class:`~repro.memory.backend.BackendStats`.
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
        self.requests = 0

    def execute(
        self, addr: int, start: int, run_scheme: bool, kind: str = "demand"
    ) -> tuple:
        """One full oblivious access; returns (completion_cycle, outcome).

        ``kind`` labels the request for tracing ("demand" / "prefetch" /
        "writeback"); it has no effect on the access itself.
        """
        backend = self.backend
        oram = backend.oram
        scheme = backend.scheme
        stats = backend.stats
        interconnect = backend.interconnect
        path_cycles = interconnect.path_cycles
        recorder = backend.recorder
        if recorder is not None:
            scheme_stats = scheme.stats
            merges_before = scheme_stats.merges
            breaks_before = scheme_stats.breaks
            retries_before = stats.fault_retries

        # ------------------------------------------------ 1. before the path
        fault_delay = backend._fault_delay() if backend.injector is not None else 0
        evictions = oram.drain_stash()
        if backend._stash_soft_limit is not None:
            evictions += backend._relieve_stash()
        stats.dummy_accesses += evictions
        extra = backend.posmap_hierarchy.lookup(addr)
        stats.posmap_accesses += extra
        # Each PosMap miss is a full path access on the smaller trees and
        # each background eviction a full dummy path access; both are
        # charged the public per-path cost and never streamed through the
        # leaf-aware scheduler (the walk's leaves belong to the recursion's
        # access pattern, the evictions' are uniform draws).
        posmap_cycles = extra * path_cycles
        evict_cycles = evictions * path_cycles

        # ------------------------------------------------------ 2. path read
        members = scheme.members_for(addr)
        blocks = oram.begin_access(members)
        # The demand path is the one access the interconnect streams
        # bucket by bucket: it issues after the serialized evictions and
        # PosMap paths, and its read + write-back share one full-path pass
        # (the flat model returns exactly path_cycles).  begin_access
        # parked the read path's leaf for the write-back; that leaf is the
        # bucket stream being timed.
        issue = start + evict_cycles + posmap_cycles
        streamed = interconnect.path_completion(oram._pending_writeback, issue) - issue

        # ---------------------------------------------------------- 3. remap
        outcome = None
        if run_scheme:
            # Members whose copies are already LLC-resident are not "coming
            # from ORAM" for the scheme's purposes (Algorithm 2).  The
            # singleton case (most accesses) skips the comprehension frame.
            llc_contains = backend._llc_contains
            if len(members) == 1:
                member = members[0]
                fetched = {} if llc_contains(member) else {member: blocks[member]}
            else:
                fetched = {
                    member: blocks[member]
                    for member in members
                    if not llc_contains(member)
                }
            outcome = scheme.process_fetch(addr, members, fetched)

        # ----------------------------------------------------- 4. write-back
        oram.finish_access()

        # ------------------------------------------------------- accounting
        latency = posmap_cycles + streamed + evict_cycles + fault_delay
        completion = start + latency
        phase_cycles = self.phase_cycles
        phase_cycles["posmap"] += posmap_cycles
        phase_cycles["path_read"] += streamed
        phase_cycles["writeback"] += evict_cycles
        phase_cycles["fault"] += fault_delay
        self.requests += 1
        if evictions or extra:
            interconnect.note_untracked(evictions + extra)
        backend.busy_until = completion
        stats.memory_accesses += extra + 1
        stats.busy_cycles += latency
        policy = backend._policy_listener
        if policy is not None:
            if evictions:
                policy.on_background_eviction(evictions)
            # A same-cycle burst (sharded batches) may land elapsed == 0;
            # the policy guards that boundary itself (Equation 1).
            policy.on_request(
                busy_cycles=latency,
                elapsed_cycles=completion - backend._last_request_cycle,
            )
        backend._last_request_cycle = completion
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
        return completion, outcome
