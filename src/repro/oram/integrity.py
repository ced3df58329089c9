"""Integrity verification for the Path ORAM tree (Merkle tree over buckets).

The paper's threat model assumes a *curious* adversary, but the secure
processors it targets (Aegis, Ascend; cf. the Freecursive ORAM baseline,
section 2.3) also verify that untrusted memory is *authentic*: a tampering
adversary must not be able to substitute stale or forged buckets.  The
textbook construction maps perfectly onto the ORAM tree: each node stores a
hash of its bucket's (encrypted) content concatenated with its children's
hashes, the root hash lives on-chip, and -- crucially -- verifying or
updating any path touches exactly the buckets a Path ORAM access already
reads and writes, so integrity adds **no extra memory accesses**.

This module implements that Merkle layer over the functional tree plus a
verifying wrapper used by tests and the oblivious store.  Like the cipher,
the hash is real (SHA-256) but the layer exists for fidelity, not as a
hardened security product.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.oram.path_oram import PathORAM
from repro.oram.tree import BinaryTree
from repro.utils.bitops import LEAF_BITS, LEAF_MASK


class IntegrityViolationError(RuntimeError):
    """A path failed verification against the trusted root hash."""


def _hash_node(payload: bytes, left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(payload + left + right).digest()


_LEAF_CHILD = b"\x00" * 32


class MerkleTree:
    """Hash tree mirroring the ORAM tree's heap layout.

    The ORAM controller calls :meth:`update_path` during every path
    write-back and :meth:`verify_path` during every path read; both walk
    only the accessed path (plus sibling hashes, which in hardware ride the
    same DRAM burst as the buckets).
    """

    def __init__(self, tree: BinaryTree):
        self._tree = tree
        self._hashes: List[bytes] = [b""] * tree.num_buckets
        # Build bottom-up so the root reflects the populated tree.
        for index in range(tree.num_buckets - 1, -1, -1):
            self._hashes[index] = self._compute(index)

    # ------------------------------------------------------------ internals
    def _bucket_payload(self, index: int) -> bytes:
        """Deterministic digest input for one bucket's logical content.

        Hardware hashes the ciphertexts it wrote; the simulator's buckets
        hold plaintext block words, so we hash their canonical
        serialization instead (addr, leaf, payload), in address order
        (``sorted`` on the words), which detects exactly the same
        substitutions.
        """
        payloads = self._tree.payloads
        parts = []
        for word in sorted(self._tree.words(index)):
            addr = word >> LEAF_BITS
            parts.append(
                addr.to_bytes(8, "little", signed=True)
                + (word & LEAF_MASK).to_bytes(8, "little")
                + (payloads.get(addr) or b"")
            )
        return b"|".join(parts)

    def _children(self, index: int) -> tuple:
        left = 2 * index + 1
        right = 2 * index + 2
        if left >= self._tree.num_buckets:
            return _LEAF_CHILD, _LEAF_CHILD
        return self._hashes[left], self._hashes[right]

    def _compute(self, index: int) -> bytes:
        left, right = self._children(index)
        return _hash_node(self._bucket_payload(index), left, right)

    # ------------------------------------------------------------------ API
    @property
    def root(self) -> bytes:
        """The on-chip trusted root hash."""
        return self._hashes[0]

    def update_path(self, leaf: int) -> None:
        """Recompute the hashes along one path, leaf to root (write-back)."""
        for index in reversed(self._tree.path_indices(leaf)):
            self._hashes[index] = self._compute(index)

    def verify_path(self, leaf: int) -> None:
        """Check one path against the trusted root.

        Walks from the leaf up, recomputing each node from the bucket
        content and the (untrusted but self-certifying) child hashes.

        Raises:
            IntegrityViolationError: if any node's stored hash or the root
            does not match the recomputation.
        """
        for index in reversed(self._tree.path_indices(leaf)):
            expected = self._compute(index)
            if expected != self._hashes[index]:
                raise IntegrityViolationError(
                    f"bucket {index} hash mismatch on path to leaf {leaf}"
                )
        # The path's root recomputation equals the stored root by the loop
        # above (index 0 is on every path); nothing further to check.

    def verify_all(self) -> None:
        """Full-tree audit (tests only)."""
        for index in range(self._tree.num_buckets - 1, -1, -1):
            if self._compute(index) != self._hashes[index]:
                raise IntegrityViolationError(f"bucket {index} hash mismatch")

    # ------------------------------------------------------------ tampering
    def stored_hash(self, index: int) -> bytes:
        """Adversary-visible stored hash (tests simulate tampering)."""
        return self._hashes[index]

    def overwrite_hash(self, index: int, value: bytes) -> None:
        """Simulate an adversary rewriting a stored hash (tests)."""
        self._hashes[index] = value


class VerifiedPathORAM(PathORAM):
    """Path ORAM with Merkle verification on every path touch.

    Every path read is verified against the trusted root before the blocks
    enter the stash, and every path write refreshes the hashes -- at zero
    extra memory accesses, since the Merkle nodes ride the path.

    An optional :class:`~repro.faults.injector.FaultInjector` models the
    untrusted storage misbehaving: it runs immediately before each path
    verification, so whatever it corrupts is subjected to exactly the check
    the hardware would apply.  Detection then surfaces as
    :class:`IntegrityViolationError` to the resilient access path, which
    escalates to checkpoint recovery (see :mod:`repro.faults.resilient`).
    """

    def __init__(self, *args, injector=None, **kwargs):
        self.injector = injector
        self.injected_delay_cycles = 0
        super().__init__(*args, **kwargs)
        self.merkle = MerkleTree(self.tree)
        self.verified_paths = 0

    def populate(self) -> None:  # rebuild hashes once blocks are installed
        super().populate()
        self.merkle = MerkleTree(self.tree)

    def rebuild_auxiliary(self) -> None:
        """Recompute the hash tree after a checkpoint restore installed state."""
        self.merkle = MerkleTree(self.tree)

    def _before_path_read(self, leaf: int) -> None:
        if self.injector is not None:
            self.injected_delay_cycles += self.injector.on_path_read(self, leaf)
        self.merkle.verify_path(leaf)
        self.verified_paths += 1

    def _after_path_write(self, leaf: int) -> None:
        self.merkle.update_path(leaf)
