"""Deterministic fault injection for the ORAM's untrusted storage.

The paper's target platforms (Ascend/Aegis-class secure processors,
sections 2.1-2.3) place the ORAM tree in *untrusted* external memory: a
realistic deployment must assume bits rot, DIMMs stall, and an active
adversary can replay stale bucket images.  This module simulates exactly
that adversary/environment, deterministically: a :class:`FaultInjector`
wraps the storage an ORAM reads (the :class:`~repro.oram.tree.BinaryTree`
bucket array for the functional store, the abstract memory channel for the
timing backends) and injects four fault classes at configured rates:

* **bucket bit-flips** -- one bit of one real block on the accessed path is
  flipped: a bit of its payload if it has one, else the low bit of its
  word (the leaf label).  Detected by the Merkle layer on the very next
  path verification.
* **stale-bucket replay** -- a previously snapshotted bucket image is
  written back over the live bucket (the classic rollback adversary): its
  stale words, and the stale payloads of the addresses whose live block is
  in that bucket.  Also caught by the Merkle layer: the stored hashes have
  moved on.
* **transient read failures** -- the read raises
  :class:`TransientReadError` without corrupting anything (a timed-out
  DRAM burst / link CRC error).  The resilient access path retries these.
* **delayed responses** -- the read completes but late; the injector
  returns the extra cycles so timing backends can charge them.

The trust boundary is the chip's pins: the top ``treetop_levels`` of the
tree sit in on-chip SRAM (DESIGN.md section 13), so the bucket classes
draw only from the off-chip suffix of the accessed path.

Every decision is drawn from a private :class:`DeterministicRng`, so the
same :class:`FaultConfig` against the same access sequence produces the
same fault schedule, byte for byte -- the soak benchmark and the recovery
tests rely on this.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, Sequence, Tuple

from repro.utils.bitops import LEAF_BITS, LEAF_MASK
from repro.utils.rng import DeterministicRng


class TransientReadError(RuntimeError):
    """A storage read failed transiently; the access may be retried."""


@dataclass(frozen=True)
class FaultConfig:
    """Rates and parameters of the injected fault classes.

    All rates are per *path access* (functional ORAM) or per *memory
    access* (timing backend) probabilities in ``[0, 1]``.

    Attributes:
        seed: seed of the injector's private random stream.
        bitflip_rate: probability of flipping one bit of one real block on
            the accessed path.
        replay_rate: probability of rewinding one accessed-path bucket to a
            previously snapshotted stale image.
        transient_rate: probability the read raises
            :class:`TransientReadError` instead of completing.
        delay_rate: probability the read is delayed by ``delay_cycles``.
        delay_cycles: extra latency charged for a delayed response.
        start_after: number of leading accesses exempt from injection
            (lets a workload warm up before the faults begin).
    """

    seed: int = 0
    bitflip_rate: float = 0.0
    replay_rate: float = 0.0
    transient_rate: float = 0.0
    delay_rate: float = 0.0
    delay_cycles: int = 200
    start_after: int = 0

    def __post_init__(self) -> None:
        for name in ("bitflip_rate", "replay_rate", "transient_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_cycles < 0:
            raise ValueError("delay_cycles must be >= 0")

    @property
    def any_enabled(self) -> bool:
        """Whether any fault class has a nonzero rate."""
        return bool(
            self.bitflip_rate
            or self.replay_rate
            or self.transient_rate
            or self.delay_rate
        )


@dataclass
class FaultStats:
    """Counters of everything the injector actually did."""

    path_reads: int = 0
    memory_accesses: int = 0
    bitflips: int = 0
    replays: int = 0
    transients: int = 0
    delays: int = 0
    delay_cycles: int = 0
    snapshots: int = 0

    @property
    def total_injected(self) -> int:
        """Faults that actually perturbed an access."""
        return self.bitflips + self.replays + self.transients + self.delays

    def as_dict(self) -> Dict[str, int]:
        """Every counter by name, then the derived ``total_injected``."""
        return {**asdict(self), "total_injected": self.total_injected}


#: serialized image of one bucket: ((addr, leaf, data), ...)
_BucketImage = Tuple[Tuple[int, int, bytes], ...]


def _bucket_image(bucket: Sequence[int], payloads: Dict[int, bytes]) -> _BucketImage:
    return tuple(
        (addr := word >> LEAF_BITS, word & LEAF_MASK, payloads.get(addr) or b"") for word in bucket
    )


class FaultInjector:
    """Seed-driven fault source for untrusted ORAM storage.

    Two entry points serve the two storage layers:

    * :meth:`on_path_read` -- called by the Merkle-verified functional ORAM
      immediately *before* a path is verified and read into the stash.  It
      may corrupt off-chip accessed-path buckets (bit-flip, replay), raise a
      transient failure, or report a delay.  Corruptions are restricted to
      the path about to be verified, so detection is immediate -- exactly
      the adversary the Merkle layer is built to catch.
    * :meth:`on_memory_access` -- called by timing backends that have no
      block-level storage to corrupt; only the transient and delay classes
      apply.

    The injector can be :meth:`paused` (recovery reads the sealed
    checkpoint store, which the fault model does not cover).
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self.rng = DeterministicRng(config.seed)
        self.stats = FaultStats()
        self.enabled = True
        #: stale bucket images keyed by heap index, for the replay class
        self._snapshots: Dict[int, _BucketImage] = {}

    # ------------------------------------------------------------- control
    @contextmanager
    def paused(self) -> Iterator["FaultInjector"]:
        """Suspend injection (e.g. while recovery replays the journal)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = previous

    # ------------------------------------------------------------- entries
    def on_path_read(self, oram, leaf: int) -> int:
        """Possibly perturb the off-chip part of the path ``oram`` is about
        to read; return delay cycles.

        Raises:
            TransientReadError: when the transient class fires (nothing is
                corrupted; the caller may retry the access).
        """
        stats = self.stats
        stats.path_reads += 1
        config = self.config
        if not self.enabled or not config.any_enabled:
            return 0
        if stats.path_reads <= config.start_after:
            return 0
        # Draw every class decision up front, in a fixed order, so the
        # random stream (and therefore the schedule) is a pure function of
        # the seed and the access sequence.
        rng = self.rng
        u_transient = rng.random()
        u_bitflip = rng.random()
        u_replay = rng.random()
        u_delay = rng.random()
        if u_transient < config.transient_rate:
            stats.transients += 1
            raise TransientReadError(
                f"injected transient read failure on path to leaf {leaf}"
            )
        tree = oram.tree
        # The pinned levels are on-chip, inside the trust boundary.
        path = tree.path_indices(leaf)[min(oram.config.treetop_levels, tree.levels):]
        if u_bitflip < config.bitflip_rate:
            self._inject_bitflip(tree, path)
        if config.replay_rate:
            if u_replay < config.replay_rate:
                self._inject_replay(tree, path)
            self._take_snapshot(tree, path)
        if u_delay < config.delay_rate:
            stats.delays += 1
            stats.delay_cycles += config.delay_cycles
            return config.delay_cycles
        return 0

    def on_memory_access(self) -> int:
        """Transient/delay faults for block-less timing backends."""
        stats = self.stats
        stats.memory_accesses += 1
        config = self.config
        if not self.enabled or not (config.transient_rate or config.delay_rate):
            return 0
        if stats.memory_accesses <= config.start_after:
            return 0
        rng = self.rng
        u_transient = rng.random()
        u_delay = rng.random()
        if u_transient < config.transient_rate:
            stats.transients += 1
            raise TransientReadError("injected transient memory failure")
        if u_delay < config.delay_rate:
            stats.delays += 1
            stats.delay_cycles += config.delay_cycles
            return config.delay_cycles
        return 0

    # ----------------------------------------------------------- internals
    def _inject_bitflip(self, tree, path) -> None:
        """Flip one bit of one real block on the path (if any exists)."""
        candidates = [index for index in path if tree.words(index)]
        if not candidates:
            return  # path holds only dummies; a flip there is unobservable
        rng = self.rng
        bucket = tree.bucket(candidates[rng.randbelow(len(candidates))])
        slot = rng.randbelow(len(bucket))
        addr = bucket[slot] >> LEAF_BITS
        data = tree.payloads.get(addr)
        if data:
            byte_index = rng.randbelow(len(data))
            bit = 1 << rng.randbelow(8)
            tree.payloads[addr] = (
                data[:byte_index]
                + bytes([data[byte_index] ^ bit])
                + data[byte_index + 1 :]
            )
        else:
            # Payload-less block: corrupt its leaf label instead, the
            # word's low bit (it keeps the label in range; the Merkle
            # serialization covers it either way).
            bucket[slot] ^= 1
        self.stats.bitflips += 1

    def _inject_replay(self, tree, path) -> None:
        """Rewind the first path bucket whose snapshot differs from now."""
        payloads = tree.payloads
        for index in path:
            stale = self._snapshots.get(index)
            if stale is None or _bucket_image(tree.words(index), payloads) == stale:
                continue
            # A payload is one entry per address: the blocks this bucket
            # holds now take their stale bytes (or none) with them, and a
            # block that lives elsewhere keeps its own.
            bucket = tree.bucket(index)
            live = {word >> LEAF_BITS for word in bucket}
            for addr in live:
                payloads.pop(addr, None)
            payloads.update((addr, data) for addr, _, data in stale if data and addr in live)
            bucket[:] = [addr << LEAF_BITS | leaf for addr, leaf, _ in stale]
            self.stats.replays += 1
            return

    def _take_snapshot(self, tree, path) -> None:
        """Record one random path bucket for a future replay."""
        index = path[self.rng.randbelow(len(path))]
        self._snapshots[index] = _bucket_image(tree.words(index), tree.payloads)
        self.stats.snapshots += 1
