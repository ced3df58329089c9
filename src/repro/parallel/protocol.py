"""Wire protocol between the parallel front-end and its shard executors.

Everything that crosses a process boundary is defined here: the
:class:`ShardSpec` a shard is opened with, and the shapes of the
command/reply tuples a :class:`~repro.parallel.worker.ShardExecutor`
takes and yields over the two ``multiprocessing`` queues of its worker
process.  Tuples (not classes) cross the queues so a reply is cheap to
pickle and the protocol is trivially versionable by shape.

Commands (front-end -> worker)::

    ("batch", seq, [(local_addr, now, is_write), ...])
    ("finish", seq, horizon, fsck)  # end a run: finalize at `horizon`,
                             # audit the ORAM if `fsck`, checkpoint what
                             # no checkpoint covers yet, ship the counters
    ("hard_failure", None, reason)  # the supervisor reopened this shard
                             # after a death or hang: quarantine its breaker
                             # and checkpoint at once; no reply
    ("hang", None, seconds)  # chaos hook: stall the command loop; no reply
    ("shutdown",)

Replies (worker -> front-end)::

    ("ready", last_seq, [[seq, completions], ...])   # after (re)spawn
    ("batch_done", seq, [completion, ...], checkpointed_seq)
    ("heartbeat", seq, done_count)   # mid-batch progress (liveness proof)
    ("finished", seq, snapshot_dict, breaker, fsck_failure, checkpointed_seq)
                             # snapshot_dict: the backend's counters() walk;
                             # breaker: the shard's CircuitBreaker.state_dict(),
                             # None without a health policy; fsck_failure: the
                             # audit's summary if it found anything, else None
    ("error", seq_or_None, traceback_text)

Health is shard state.  The executor runs its channel as a bank of one
(:class:`~repro.controller.sharded.ShardedORAMBank`), so a spec with a
``health_policy`` gives the shard the bank's own breaker and health step
(:func:`repro.controller.sharded.health_access`), fed once per access:
padding, probing, latency, stash pressure and degraded mode are all
decided in the worker.  The breaker rides in the checkpoint's runtime
section beside ``last_seq`` and the reply window, so a reopened shard
resumes its own health, and in the ``finished`` reply, from which the
front-end assembles its report.  The front-end only supervises processes;
its one health input is ``hard_failure``.

The runtime replays the seq-numbered commands (a run's batches and the
``finish`` that ends it) through one pending/replay bookkeeping: after a
reopen, every command the restored checkpoint does not cover is sent again
in sequence order, behind the ``hard_failure``.  A ``run()`` of k batches
to a worker is k + 1 seq-numbered commands.

Sequence numbers are per-worker and strictly increasing; a worker that
receives a batch it already applied (a replay after the reply was lost in
a crash) answers from its stored reply window instead of re-executing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.faults.injector import FaultConfig
from repro.health.breaker import HealthPolicy


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to rebuild its shard from scratch.

    The spec is pure data (picklable) and the backend construction it
    drives -- :func:`repro.controller.sharded.build_shard_backend` -- derives the
    shard RNG from ``(config.seed, shard_index)`` alone, so a worker
    reconstructs a shard bit-identical to the one the serial
    :class:`~repro.controller.sharded.ShardedORAMBank` would build.

    Attributes:
        base_scheme: scheme name with suffixes already stripped
            ("oram", "stat", "dyn", ...).
        footprint_blocks: the *global* workload footprint.
        num_shards: bank width; this worker owns global addresses
            congruent to ``shard_index`` mod ``num_shards``.
        checkpoint_path: where this worker persists its backend state (a
            reopened worker restores it).
        checkpoint_every: batches between periodic checkpoints; ``0``
            leaves only the genesis checkpoint and the ones ``finish``
            takes (one per ``run()``), so recovery replays the whole
            current run.
        replay_window: how many recent batch replies the worker stores
            inside its checkpoint; must cover the front-end's maximum
            in-flight batches or a reply lost in a crash is unrecoverable.
        rng_restart_salt: 0 on first boot; a respawn passes the restart
            attempt number so the recovered shard draws a fresh (still
            deterministic) leaf stream instead of replaying the original
            one from the start.
        heartbeat_every: completions between mid-batch ``heartbeat``
            replies (0 disables).  Heartbeats let the front-end tell a
            slow worker from a hung one under deadline enforcement.
        health_policy: optional :class:`~repro.health.HealthPolicy`;
            the shard's bank of one then runs its own breaker, per access.
        fault_config: optional in-worker fault injection.  The worker
            salts the config seed with ``(shard_index, rng_restart_salt)``
            so every shard -- and every respawn -- draws an independent,
            still deterministic fault stream.
    """

    base_scheme: str
    footprint_blocks: int
    num_shards: int
    shard_index: int
    config: SystemConfig
    checkpoint_path: str
    checkpoint_every: int = 1
    replay_window: int = 8
    rng_restart_salt: int = 0
    heartbeat_every: int = 0
    health_policy: Optional[HealthPolicy] = None
    fault_config: Optional[FaultConfig] = None
