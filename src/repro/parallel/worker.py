"""The shard executor: one channel of the bank, one command loop, one transport.

A :class:`ShardExecutor` owns exactly one channel of the bank -- a complete
:class:`~repro.memory.oram_backend.ORAMBackend` with its own tree, stash,
position-map hierarchy, and access pipeline -- rebuilt from the
:class:`~repro.parallel.protocol.ShardSpec` (specs are data; live backends
never cross a process boundary).  It turns one command tuple into its
reply tuples; the shapes are documented in :mod:`repro.parallel.protocol`.
The executor is the only implementation of a shard's state machine (seq
de-duplication, reply window, checkpoint cadence, the run-end ``finish``),
and :func:`shard_worker_main` is its one transport: a worker process that
pumps a command queue into the executor and its replies onto a reply
queue, in every health state of the shard.

The executor is a bank of one: it wraps its channel in a
:class:`~repro.controller.sharded.ShardedORAMBank` of width one (under the
spec's ``health_policy``, if any) and sends every demand access through
the bank's ``demand_access``, so a worker and a bank channel share one
access path -- health step included -- by construction.  The front-end's
one health input is ``hard_failure``, the bank's ``quarantine_shard``.

Durability: the executor persists its entire backend (via
:func:`repro.oram.checkpoint.save_backend`) at open, every
``checkpoint_every`` batches *before* acknowledging the batch, and at
``finish`` when a batch is still uncovered, keeping a window of recent
``(seq, completions)`` replies and its breaker inside the checkpoint's
runtime section.  A reopened shard therefore reports exactly which batches
survived (``last_seq``) and can re-serve acknowledgements the crash
swallowed -- the front-end replays only what is genuinely missing.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import replace
from typing import Iterator

from repro.controller.sharded import ShardedORAMBank, build_shard_backend
from repro.faults.fsck import run_fsck
from repro.faults.injector import FaultInjector
from repro.oram.checkpoint import restore_backend, save_backend
from repro.parallel.protocol import ShardSpec


def build_worker_backend(spec: ShardSpec):
    """Rebuild this worker's shard exactly as the serial bank would."""
    injector = None
    if spec.fault_config is not None:
        injector = FaultInjector(
            replace(
                spec.fault_config,
                seed=spec.fault_config.seed
                + 1009 * spec.shard_index
                + 31 * spec.rng_restart_salt,
            )
        )
    return build_shard_backend(
        spec.base_scheme,
        spec.footprint_blocks,
        spec.config,
        spec.shard_index,
        spec.num_shards,
        fault_injector=injector,
        rng_restart_salt=spec.rng_restart_salt,
    )


class ShardExecutor:
    """One shard's backend, as a bank of one, plus the state machine that
    applies commands.

    Args:
        spec: how to build the shard and where it checkpoints.  An existing
            checkpoint is restored (backend, ``last_seq``, reply window
            and breaker); otherwise a genesis checkpoint is written so a
            crash before the first periodic one still leaves something to
            restore from.

    ``bank`` is ``ShardedORAMBank([backend], spec.health_policy)``: under a
    policy its 1-wide plane is the shard's breaker, fed per access by the
    bank's health step.
    """

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.backend = build_worker_backend(spec)
        self.bank = ShardedORAMBank([self.backend], spec.health_policy)
        self.last_seq = -1
        #: recent [seq, completions] pairs, oldest first
        self.window: list = []
        self.checkpointed_seq = -1
        self.batches_since_checkpoint = 0
        if os.path.exists(spec.checkpoint_path):
            runtime = restore_backend(self.backend, spec.checkpoint_path)
            self.last_seq = runtime.get("last_seq", -1)
            self.window = [list(entry) for entry in runtime.get("replies", [])]
            self.checkpointed_seq = self.last_seq
            if runtime.get("breaker"):
                breaker = self.bank.health.breakers[0]
                breaker.load_state_dict(runtime["breaker"])
                self.backend.set_degraded(breaker.state.throttled)
        else:
            self._checkpoint()

    def breaker_state(self):
        """The shard's breaker as it crosses a boundary (``None``: no plane)."""
        health = self.bank.health
        return health.breakers[0].state_dict() if health else None

    def ready(self) -> tuple:
        """The announcement a transport sends before any command's reply."""
        return ("ready", self.last_seq, [list(entry) for entry in self.window])

    def _checkpoint(self) -> None:
        runtime = {
            "last_seq": self.last_seq,
            "replies": [list(entry) for entry in self.window],
        }
        if self.bank.health:
            runtime["breaker"] = self.breaker_state()
        save_backend(self.backend, self.spec.checkpoint_path, runtime)
        self.checkpointed_seq = self.last_seq
        self.batches_since_checkpoint = 0

    def handle(self, command: tuple) -> Iterator[tuple]:
        """Apply one command; yield its replies as they become available
        (a batch's heartbeats precede its ``batch_done``).  A failure
        inside the backend becomes an ``error`` reply, never an exception:
        the front-end decides what a broken shard means."""
        op = command[0]
        seq = command[1] if len(command) > 1 else None
        try:
            if op == "batch":
                yield from self._apply_batch(seq, command[2])
            elif op == "finish":
                yield self._finish(seq, command[2], command[3])
            elif op == "hard_failure":
                # The supervisor reopened this shard after a death or hang.
                # No reply, so it never perturbs the seq/ack bookkeeping;
                # checkpointed at once, so a second crash cannot lose it.
                self.bank.quarantine_shard(0, command[2])
                self._checkpoint()
            elif op == "hang":
                # Chaos hook: stall the command loop without dying.  The
                # batches queued behind this command stop being served,
                # which is exactly the failure deadline enforcement must
                # catch (a kill is detectable by liveness; a hang is not).
                time.sleep(command[2])
            else:
                yield ("error", seq, f"unknown command {op!r}")
        except Exception:
            yield ("error", seq, traceback.format_exc())

    def _finish(self, seq: int, horizon: int, fsck: bool) -> tuple:
        """End a run: finalize at *horizon*, audit when *fsck* asks,
        checkpoint the batches no checkpoint covers yet -- so a crash in
        the next run never replays them into that run -- and ship the
        counters and the breaker."""
        backend = self.backend
        backend.finalize(max(horizon, backend.busy_until))
        failure = None
        if fsck:
            report = run_fsck(backend.oram)
            if not report.ok:
                failure = report.summary()
        if self.last_seq > self.checkpointed_seq:
            self._checkpoint()
        return (
            "finished", seq, backend.counters(), self.breaker_state(), failure,
            self.checkpointed_seq,
        )

    def _apply_batch(self, seq: int, batch: list) -> Iterator[tuple]:
        if seq <= self.last_seq:
            # Replay of already-applied work: the crash swallowed the
            # acknowledgement, not the effects.  Answer from the stored
            # window instead of re-executing.
            for stored_seq, stored in self.window:
                if stored_seq == seq:
                    yield ("batch_done", seq, stored, self.checkpointed_seq)
                    return
            yield (
                "error",
                seq,
                f"batch {seq} predates the replay window "
                f"(last_seq={self.last_seq})",
            )
            return
        demand_access = self.bank.demand_access
        spec = self.spec
        completions = []
        for addr, now, is_write in batch:
            completions.append(demand_access(addr, now, is_write)[0])
            # Mid-batch liveness proof: under deadline enforcement the
            # front-end must tell "slow" from "hung", and the only
            # evidence that crosses the process boundary is a reply.  The
            # final completion is announced by batch_done itself, so no
            # heartbeat follows it.
            if (
                spec.heartbeat_every
                and len(completions) % spec.heartbeat_every == 0
                and len(completions) < len(batch)
            ):
                yield ("heartbeat", seq, len(completions))
        self.last_seq = seq
        self.window.append([seq, completions])
        del self.window[: -max(spec.replay_window, 1)]
        self.batches_since_checkpoint += 1
        if (
            spec.checkpoint_every
            and self.batches_since_checkpoint >= spec.checkpoint_every
        ):
            self._checkpoint()
        yield ("batch_done", seq, completions, self.checkpointed_seq)


def shard_worker_main(spec: ShardSpec, commands, replies) -> None:
    """Process transport (target of ``Process``): build the executor,
    announce it, pump the command queue until ``shutdown``."""
    try:
        executor = ShardExecutor(spec)
    except Exception:
        replies.put(("error", None, traceback.format_exc()))
        return
    replies.put(executor.ready())
    while True:
        command = commands.get()
        if command[0] == "shutdown":
            return
        for reply in executor.handle(command):
            replies.put(reply)

