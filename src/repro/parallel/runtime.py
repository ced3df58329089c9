"""The process-parallel shard runtime: N workers, one merged result.

:class:`ParallelShardRuntime` is the front-end.  It partitions an
address-tagged request stream across the bank's channels
(``shard = addr % N``, arrival order preserved within a shard -- the same
partition :meth:`ShardedORAMBank.access_batch` uses), ships each shard's
sub-stream as sequence-numbered batches to a worker process, and merges
the per-shard completions and counter snapshots back into the exact
:class:`~repro.sim.results.SimResult` the in-process serial bank produces.
Shards share nothing by construction (own tree, stash, RNG fork), so the
cross-process cut is free of coherence traffic and the merged result is
bit-identical to serial for any worker count.

Failure model: workers checkpoint their whole backend after every
``checkpoint_every`` batches *before* acknowledging (see
:mod:`repro.parallel.worker`).  The front-end detects a dead worker
(liveness poll while waiting on its reply queue), respawns it from the
latest checkpoint, re-serves acknowledgements the crash swallowed out of
the checkpoint's reply window, and replays every command the checkpoint
had not yet captured -- batches and the ``finish`` that ends a run alike,
through one pending/replay bookkeeping and one reply dispatch -- always
commands of the current ``run()``, because each run's ``finish``
checkpoints the rest.  Every demand access is therefore
applied and counted exactly once -- "zero lost writes" in a timing
simulator means the merged accounting is indistinguishable from a run
that never crashed (completions of replayed batches may differ, since a
recovered shard draws a fresh deterministic RNG stream).

Observability: each worker's bookkeeping counts its own events in bare
attributes (``_Worker.COUNTERS``) next to a batch round-trip histogram;
:meth:`ParallelShardRuntime.worker_snapshots` is the one walk over them and
:meth:`ParallelShardRuntime.metrics` reports it under
``parallel.worker<i>.*``.

Supervision, not health: constructed with a
:class:`~repro.health.HealthPolicy`, the runtime hands the policy to every
worker -- each shard is a bank of one and runs its own breaker, per
access, on the bank's access path (:mod:`repro.parallel.worker`) -- and
enforces wall-clock deadlines on the processes.  Workers emit mid-batch ``heartbeat`` replies;
a worker whose in-flight batches make no progress (no ack, no heartbeat)
for ``batch_deadline_s`` is declared *hung* and terminated.  A dead or
hung shard is healed the same way with or without a policy -- a fresh
worker process reopened from its checkpoint, within the restart budget --
and under a policy the reopened worker is sent one ``hard_failure``
before anything is replayed, so its breaker quarantines it; padding,
probing and re-admission then happen inside the worker.  The runtime
reads no breaker during a run: :attr:`ParallelShardRuntime.health` is
the report view of the breakers the workers ship in their ``finished``
replies.  Without a policy, behavior is bit-identical to the pre-health
runtime.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.faults.injector import FaultConfig
from repro.faults.resilient import refuse_endless_retries
from repro.health import HealthControlPlane, HealthPolicy
from repro.observability.collect import collect_parallel
from repro.observability.metrics import CycleHistogram, MetricsRegistry
from repro.parallel.merge import merge_shard_snapshots
from repro.parallel.protocol import ShardSpec
from repro.parallel.worker import shard_worker_main
from repro.sim.results import SimResult

#: liveness-poll interval while waiting on a reply queue (seconds)
_POLL_S = 0.02


class WorkerFailure(RuntimeError):
    """A shard worker failed beyond what the recovery ladder can heal.

    ``reason`` says how: ``"hang"`` (alive but silent past the deadline),
    ``"death"`` (the process exited), or ``"error"`` for everything else.
    """

    def __init__(self, message: str, reason: str = "error"):
        super().__init__(message)
        self.reason = reason


class _Worker:
    """Front-end bookkeeping for one shard worker process."""

    #: event counts, one bare attribute each (``restarts`` also salts the
    #: shard's RNG, see :meth:`ParallelShardRuntime._start`); the batches
    #: acknowledged are :attr:`roundtrip_us`'s sample count
    COUNTERS = ("restarts", "hangs")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.commands = None
        self.replies = None
        self.next_seq = 0
        #: sent, not yet answered: seq -> (positions, command, sent at);
        #: positions is ``None`` for the ``finish`` that ends a run
        self.pending: Dict[int, Tuple[Optional[List[int]], tuple, float]] = {}
        #: acknowledged batches no checkpoint covers yet (replay fodder)
        self.unckpt: Dict[int, Tuple[Optional[List[int]], tuple, float]] = {}
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.roundtrip_us = CycleHistogram("batch_roundtrip_us")
        #: last wall-clock instant this worker proved progress (spawn,
        #: send, heartbeat, or any reply) -- the deadline reference point
        self.last_progress = 0.0

    @property
    def inflight(self) -> int:
        return len(self.pending)


def _drain_nowait(replies):
    """``get_nowait`` that treats a crash-corrupted queue as empty.

    A worker killed mid-``put`` can leave a truncated pickle in the pipe;
    reading it raises instead of returning.  The abandoned queue is
    replaced on respawn, so any unreadable tail is equivalent to no reply.
    """
    try:
        return replies.get_nowait()
    except queue_module.Empty:
        return None
    except Exception:
        return None


def _record(results: list, positions: List[int], completions) -> bool:
    """Write one batch's completions into *results* unless an earlier
    acknowledgement of the same batch already did; True if it wrote."""
    if results[positions[0]] is not None:
        return False
    for position, cycle in zip(positions, completions):
        results[position] = cycle
    return True


def _forget_checkpointed(worker: _Worker, checkpointed_seq: int) -> None:
    """Drop replay fodder a checkpoint now covers."""
    for covered in [s for s in worker.unckpt if s <= checkpointed_seq]:
        del worker.unckpt[covered]


class ParallelShardRuntime:
    """Run each channel of a sharded ORAM bank in its own process.

    Args:
        scheme: base scheme name ("oram", "stat", "dyn", ... -- no
            prefetch/periodic suffixes; prefetchers live core-side and the
            runtime replays a pre-captured miss stream).
        footprint_blocks: global workload footprint (shards are scaled to
            their slice exactly as :meth:`SecureSystem.build` does).
        num_workers: bank width; one worker process per shard.
        checkpoint_dir: directory for per-worker checkpoints, required:
            a dead or hung worker is reopened from its checkpoint (stale
            files from a previous runtime are removed at startup -- the
            runtime owns the directory).
        checkpoint_every: batches between worker checkpoints (1 = durable
            after every batch; 0 = none inside a run, recovery then replays
            the run so far).  Whatever the cadence, the ``finish`` that ends
            a ``run()`` checkpoints what is still uncovered, so replay never
            reaches back into an earlier run.
        batch_size: requests per shipped batch.
        max_inflight: per-worker cap on unacknowledged batches; bounded by
            the worker's reply replay window (sized to ``2 * max_inflight``)
            so a lost acknowledgement is always recoverable.
        max_restarts: per-worker respawn budget; a failure past it raises
            :class:`WorkerFailure`, with or without a health plane.
        health_policy: give every worker its own circuit breaker, fed per
            access in the worker exactly as a bank channel feeds its own
            (:attr:`health` reports them after each run; the breaker rides
            in the checkpoint).  It also sets the supervisor's knobs --
            ``batch_deadline_s`` (seconds an in-flight worker may go
            without an ack or heartbeat before it is declared hung and
            terminated), ``heartbeat_every`` (completions between
            mid-batch heartbeats) and
            ``join_timeout_s`` (the ``Process.join`` timeout of every
            lifecycle path); without a policy they are 0 (no hang
            detection), 0 (no heartbeats) and 5 s.
        fault_config: in-worker fault injection (seed salted per shard
            and per respawn); the chaos harness's storm knob.
    """

    def __init__(
        self,
        scheme: str,
        footprint_blocks: int,
        config: Optional[SystemConfig] = None,
        num_workers: int = 2,
        *,
        checkpoint_dir: str,
        checkpoint_every: int = 1,
        batch_size: int = 64,
        max_inflight: int = 4,
        max_restarts: int = 2,
        health_policy: Optional[HealthPolicy] = None,
        fault_config: Optional[FaultConfig] = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if scheme == "dram":
            raise ValueError("sharded banks model ORAM channels, not DRAM")
        if batch_size < 1 or max_inflight < 1:
            raise ValueError("batch_size and max_inflight must be positive")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0 (0: none inside a run), not "
                f"{checkpoint_every}"
            )
        if fault_config is not None:
            refuse_endless_retries(fault_config)  # before any worker starts
        self.scheme = scheme
        self.footprint_blocks = footprint_blocks
        self.config = config or SystemConfig()
        self.num_workers = num_workers
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.batch_size = batch_size
        self.max_inflight = max_inflight
        self.max_restarts = max_restarts
        self.health_policy = health_policy
        #: report view: the workers' breakers as their last ``finished``
        #: replies shipped them (``None`` without a policy)
        self.health = (
            HealthControlPlane(num_workers, health_policy)
            if health_policy is not None
            else None
        )
        self.batch_deadline_s = health_policy.batch_deadline_s if health_policy else 0.0
        self.heartbeat_every = health_policy.heartbeat_every if health_policy else 0
        self.join_timeout_s = health_policy.join_timeout_s if health_policy else 5.0
        self.fault_config = fault_config
        self._ctx = multiprocessing.get_context()
        self._workers = [_Worker(index) for index in range(num_workers)]
        os.makedirs(checkpoint_dir, exist_ok=True)
        for worker in self._workers:
            path = self._checkpoint_path(worker.index)
            if os.path.exists(path):
                os.remove(path)
        self._closed = False
        try:
            # Start them all, then wait: the builds (and genesis
            # checkpoints) overlap, so opening the bank costs the slowest
            # shard rather than the sum.
            for worker in self._workers:
                self._start(worker)
            for worker in self._workers:
                self._await_ready(worker)
        except BaseException:
            # The caller never gets an object to close: take down the
            # workers that did start before reporting the one that did not.
            self.close()
            raise

    # ------------------------------------------------------------- lifecycle
    def _checkpoint_path(self, index: int) -> str:
        return os.path.join(self.checkpoint_dir, f"shard{index:02d}.ckpt")

    def _spec(self, index: int, restart_salt: int) -> ShardSpec:
        return ShardSpec(
            base_scheme=self.scheme,
            footprint_blocks=self.footprint_blocks,
            num_shards=self.num_workers,
            shard_index=index,
            config=self.config,
            checkpoint_path=self._checkpoint_path(index),
            checkpoint_every=self.checkpoint_every,
            replay_window=max(2 * self.max_inflight, 8),
            rng_restart_salt=restart_salt,
            heartbeat_every=self.heartbeat_every,
            health_policy=self.health_policy,
            fault_config=self.fault_config,
        )

    def _start(self, worker: _Worker) -> None:
        """Start the shard's worker process without waiting for it.
        Starting a shard that was open before begins a new incarnation:
        the restart count, which salts its RNG, advances."""
        if worker.commands is not None:
            worker.restarts += 1
        worker.commands = self._ctx.Queue()
        worker.replies = self._ctx.Queue()
        spec = self._spec(worker.index, worker.restarts)
        worker.process = self._ctx.Process(
            target=shard_worker_main,
            args=(spec, worker.commands, worker.replies),
            daemon=True,
            name=f"repro-shard-{worker.index}",
        )
        worker.process.start()
        worker.last_progress = time.perf_counter()

    def _await_ready(self, worker: _Worker) -> Tuple[int, list]:
        """Block until a started shard announces ``ready``; return its
        ``(last_seq, reply window)``."""
        reply = self._await_reply(worker)
        if reply[0] == "error":
            raise WorkerFailure(f"worker {worker.index} failed to start: {reply[2]}")
        if reply[0] != "ready":
            raise WorkerFailure(
                f"worker {worker.index} sent {reply[0]!r} before ready"
            )
        return reply[1], reply[2]

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        for worker in self._workers:
            process = worker.process
            if process is None or not process.is_alive():
                continue
            try:
                worker.commands.put(("shutdown",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=self.join_timeout_s)
                self.kill_worker(worker.index)

    def __enter__(self) -> "ParallelShardRuntime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # --------------------------------------------------------------- pumping
    def _deadline_expired(self, worker: _Worker) -> bool:
        return (
            self.batch_deadline_s > 0
            and time.perf_counter() - worker.last_progress > self.batch_deadline_s
        )

    def _poll(self, worker: _Worker, *, block: bool = False, deadline: bool = True):
        """One look at *worker*'s reply queue: the next reply (heartbeats
        included), or ``None`` when there is none (with *block*: none
        within the liveness-poll interval).

        This is the only place a failed worker is detected.  A dead one
        raises :class:`WorkerFailure` with reason ``"death"``; with
        *deadline*, one that is alive but has been silent past
        ``batch_deadline_s`` is terminated and raises with reason
        ``"hang"``.  The caller owns recovery, since only it knows which
        commands the dead incarnation's queue took with it.
        """
        try:
            reply = worker.replies.get(block, _POLL_S)
        except queue_module.Empty:
            if worker.process.is_alive():
                if not (deadline and self._deadline_expired(worker)):
                    return None
                worker.hangs += 1
                self.kill_worker(worker.index)
                raise WorkerFailure(
                    f"worker {worker.index} hung: no progress for "
                    f"{self.batch_deadline_s:.3f}s",
                    reason="hang",
                )
            # One last drain: the worker may have replied, then died.
            reply = _drain_nowait(worker.replies)
            if reply is None:
                raise WorkerFailure(
                    f"worker {worker.index} died "
                    f"(exitcode {worker.process.exitcode})",
                    reason="death",
                )
        worker.last_progress = time.perf_counter()
        return reply

    def _await_reply(self, worker: _Worker, *, deadline: bool = False):
        """Block until *worker* replies (:meth:`_poll` in a loop).
        Heartbeats are consumed here -- they refresh the progress clock but
        are never surfaced."""
        while True:
            reply = self._poll(worker, block=True, deadline=deadline)
            if reply is not None and reply[0] != "heartbeat":
                return reply

    def _issue(
        self, worker: _Worker, op: str, *args, positions: Optional[List[int]] = None
    ) -> None:
        """Send one seq-numbered command; *positions* (a batch's slots in
        the results list) rides along for the acknowledgement."""
        seq = worker.next_seq
        worker.next_seq += 1
        self._send(worker, seq, positions, (op, seq) + args)

    def _send(
        self, worker: _Worker, seq: int, positions: Optional[List[int]], command: tuple
    ) -> None:
        sent = time.perf_counter()
        worker.pending[seq] = (positions, command, sent)
        # A send restarts the progress clock: deadlines measure silence
        # *after* work was handed over, not idle time between batches.
        worker.last_progress = sent
        worker.commands.put(command)

    def _record_ack(
        self,
        worker: _Worker,
        seq: int,
        completions: Sequence[int],
        checkpointed_seq: int,
        results: List[Optional[int]],
    ) -> bool:
        """Apply one ``batch_done``; True if it recorded new completions.

        A re-acknowledgement of a batch that was already recorded before a
        crash (replayed purely to reconstruct worker state) keeps the
        original completions and returns False.
        """
        newly_recorded = False
        entry = worker.pending.pop(seq, None)
        if entry is not None:
            positions, _command, sent = entry
            newly_recorded = _record(results, positions, completions)
            if seq > checkpointed_seq:
                worker.unckpt[seq] = entry
            roundtrip_us = int((time.perf_counter() - sent) * 1e6)
            worker.roundtrip_us.record(roundtrip_us)
        _forget_checkpointed(worker, checkpointed_seq)
        return newly_recorded

    # -------------------------------------------------------------- recovery
    def _fail_worker(self, worker: _Worker, reason: str, results) -> int:
        """Heal one dead/hung worker: reopen the shard as a fresh worker
        process from its checkpoint, within the restart budget, tell it
        the failure (under a policy) and replay what the checkpoint lacks
        (:meth:`_reopen`).  Returns how many batches were newly recorded
        into *results*.
        """
        if worker.restarts >= self.max_restarts:
            raise WorkerFailure(
                f"worker {worker.index} exceeded its restart budget "
                f"({self.max_restarts})"
            )
        self.kill_worker(worker.index)
        return self._reopen(worker, reason, results)

    def _reopen(self, worker: _Worker, reason: str, results) -> int:
        """Reopen a shard from its checkpoint, send it one ``hard_failure``
        (*reason*; under a policy), and replay ``unckpt`` and ``pending``:
        everything un-acknowledged or un-checkpointed.

        Batches the restored checkpoint already covers are answered from
        its reply window, here, without re-execution (an acknowledged one
        needs no answer); every other command (later batches, the
        ``finish``) goes back to the new process and re-runs from the
        checkpointed state, so no completion is ever lost.  Returns the number of batches newly recorded.
        """
        # Fresh queues (via _start): the old ones may hold a torn pickle.
        self._start(worker)
        restored_seq, window = self._await_ready(worker)
        if self.health_policy is not None:
            worker.commands.put(("hard_failure", None, reason))
        stored = dict(window)
        pending = worker.pending
        replay = {**worker.unckpt, **pending}
        worker.unckpt = {}
        worker.pending = {}
        recorded = 0
        for seq in sorted(replay):
            positions, command, _sent = replay[seq]
            if seq > restored_seq:
                self._send(worker, seq, positions, command)
            elif seq in stored:
                recorded += _record(results, positions, stored[seq])
            elif seq in pending:
                # An acknowledged batch the checkpoint covers needs nothing;
                # an unacknowledged one needs its stored reply.
                raise WorkerFailure(
                    f"worker {worker.index}: batch {seq} is inside the "
                    f"restored checkpoint but outside its reply window"
                )
        return recorded

    # ------------------------------------------------------------------- run
    def run(
        self,
        requests: Sequence[Tuple[int, int, bool]],
        *,
        workload: str = "parallel",
        fsck: bool = False,
    ) -> SimResult:
        """Replay an ``(addr, now, is_write)`` stream; merge the results.

        Returns a :class:`SimResult` bit-identical to
        :func:`repro.parallel.merge.run_serial_reference` over the same
        stream, scheme, and shard count (restart telemetry stays in the
        metrics registry, deliberately outside the result).
        """
        if self._closed:
            raise WorkerFailure("runtime is closed")
        requests = list(requests)
        num_workers = self.num_workers
        # Partition by channel, preserving arrival order within a shard --
        # the same split the serial bank's access_batch performs.
        per_worker: List[List[Tuple[int, Tuple[int, int, bool]]]] = [
            [] for _ in range(num_workers)
        ]
        for position, (addr, now, is_write) in enumerate(requests):
            per_worker[addr % num_workers].append(
                (position, (addr // num_workers, now, is_write))
            )
        batches: List[List[Tuple[List[int], list]]] = []
        for assigned in per_worker:
            chunks = []
            for start in range(0, len(assigned), self.batch_size):
                chunk = assigned[start : start + self.batch_size]
                chunks.append(
                    ([position for position, _ in chunk], [r for _, r in chunk])
                )
            batches.append(chunks)
        results: List[Optional[int]] = [None] * len(requests)
        snapshots: List[Optional[dict]] = [None] * num_workers
        fsck_failures: List[str] = []
        cursors = [0] * num_workers
        unrecorded = sum(len(chunks) for chunks in batches)
        barrier = False
        while None in snapshots:
            progressed = False
            if unrecorded:
                for worker in self._workers:
                    chunks = batches[worker.index]
                    while (
                        cursors[worker.index] < len(chunks)
                        and worker.inflight < self.max_inflight
                    ):
                        positions, batch = chunks[cursors[worker.index]]
                        cursors[worker.index] += 1
                        self._issue(worker, "batch", batch, positions=positions)
                        progressed = True
            elif not barrier:
                # Barrier: finish every worker at the globally last
                # completion so finalize semantics match the serial
                # reference.  The finish is pending like a batch until its
                # reply, so a reopen replays it like anything else.
                horizon = max((c for c in results if c is not None), default=0)
                for worker in self._workers:
                    self._issue(worker, "finish", horizon, fsck)
                barrier = progressed = True
            for worker in self._workers:
                if not worker.pending:
                    continue
                try:
                    reply = self._poll(worker)
                except WorkerFailure as failure:
                    unrecorded -= self._fail_worker(worker, failure.reason, results)
                    progressed = True
                    continue
                if reply is None:
                    continue
                progressed = True
                op = reply[0]
                if op == "batch_done":
                    _op, seq, completions, checkpointed_seq = reply
                    if self._record_ack(
                        worker, seq, completions, checkpointed_seq, results
                    ):
                        unrecorded -= 1
                elif op == "finished":
                    # The run's last command: every reply before it has
                    # been read, so the whole run is answered.
                    _op, _seq, snapshot, breaker, failure, checkpointed_seq = reply
                    worker.pending.clear()
                    _forget_checkpointed(worker, checkpointed_seq)
                    snapshots[worker.index] = snapshot
                    if failure is not None:
                        fsck_failures.append(failure)
                    if self.health is not None:
                        self.health.breakers[worker.index].load_state_dict(breaker)
                elif op == "error":
                    raise WorkerFailure(f"worker {worker.index} failed: {reply[2]}")
                elif op != "heartbeat":
                    raise WorkerFailure(
                        f"worker {worker.index} sent unexpected {op!r} during a run"
                    )
            if not progressed:
                time.sleep(0.001)
        if fsck_failures:
            raise WorkerFailure("parallel fsck failed: " + "; ".join(fsck_failures))
        completions_final = [c for c in results if c is not None]
        if len(completions_final) != len(requests):
            raise WorkerFailure("lost completions: merge would under-count")
        return merge_shard_snapshots(
            snapshots,
            completions_final,
            workload=workload,
            scheme=self.scheme,
        )

    # ------------------------------------------------------------ inspection
    def worker_snapshots(self) -> List[dict]:
        """The one walk over the workers' telemetry: per worker, the batches
        acknowledged and its ``_Worker.COUNTERS`` by name, the batches in
        flight right now (``queue_depth``) and the round-trip histogram."""
        return [
            {
                "counters": {
                    "batches": worker.roundtrip_us.total,
                    **{name: getattr(worker, name) for name in _Worker.COUNTERS},
                },
                "queue_depth": worker.inflight,
                "batch_roundtrip_us": worker.roundtrip_us,
            }
            for worker in self._workers
        ]

    def metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Report the walk (and the health plane's) into a registry."""
        return collect_parallel(self, registry)

    def total_restarts(self) -> int:
        return sum(worker.restarts for worker in self._workers)

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker process (fault-injection hook for tests)."""
        process = self._workers[index].process
        if process.is_alive():
            process.terminate()
        process.join(timeout=self.join_timeout_s)

    def hang_worker(self, index: int, seconds: float = 3600.0) -> None:
        """Stall one worker's command loop (chaos hook).

        The worker stays alive but stops serving batches and heartbeats
        for *seconds* -- the failure mode the old runtime could only wait
        out.  With deadline enforcement the front-end detects the silence,
        terminates the process, and runs the recovery ladder."""
        worker = self._workers[index]
        if worker.process.is_alive():
            worker.commands.put(("hang", None, seconds))
