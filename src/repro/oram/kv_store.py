"""A functional oblivious key-value store built on the Path ORAM.

This exercises the *data path* of the substrate end to end: values are
encrypted with the probabilistic cipher and stored as the tree's payload
bytes of their block (``tree.payloads``, by address), updated only while
a real path access holds that block on-chip, and survive background
evictions.  The timing simulator
never carries payloads; this store proves the functional machinery is a
real ORAM and powers the ``oblivious_kv_store`` example.

Access pattern: every ``get``/``put`` performs exactly one ORAM access
(plus any background evictions), regardless of the key or whether it is a
read or a write -- the properties ORAM guarantees (section 2.1).
"""

from __future__ import annotations

from typing import Optional

from repro.config import ORAMConfig
from repro.oram.crypto import ProbabilisticCipher
from repro.oram.path_oram import PathORAM
from repro.security.observer import AccessObserver
from repro.utils.rng import DeterministicRng


class ObliviousKVStore:
    """Fixed-capacity key-value store with an oblivious access pattern.

    Keys are integers in ``[0, capacity)``; values are byte strings no
    longer than the configured block payload.

    Args:
        config: ORAM geometry; the store holds ``config.num_blocks`` keys.
        key: symmetric key for the probabilistic cipher.
        seed: determinism seed.
        observer: optional :class:`AccessObserver` recording the
            adversary-visible access sequence (for the security tests).
    """

    def __init__(
        self,
        config: Optional[ORAMConfig] = None,
        key: bytes = b"\x13" * 16,
        seed: int = 7,
        observer: Optional[AccessObserver] = None,
        **options,
    ):
        self._configure(**options)
        oram = self._make_oram(
            config or ORAMConfig(levels=8), DeterministicRng(seed).fork(1), observer
        )
        self._attach(oram, key, seed, observer)

    def _configure(self) -> None:
        """Take a subclass's extra constructor ``options`` (both construction
        paths run it before :meth:`_make_oram`); the plain store has none."""

    def _make_oram(
        self, config: ORAMConfig, rng: DeterministicRng, observer=None, populate=True
    ) -> PathORAM:
        """The ORAM constructor hook (the :func:`~repro.oram.checkpoint.load_oram`
        factory signature); the resilient store swaps in the Merkle-verified
        variant with a fault injector attached."""
        return PathORAM(config, rng, observer=observer, populate=populate)

    def _attach(self, oram: PathORAM, key: bytes, seed: int, observer) -> None:
        """Adopt a built or restored ORAM (shared tail of both construction paths)."""
        self._oram = oram
        self.config = oram.config
        self.observer = oram.observer = observer
        self._cipher = ProbabilisticCipher(key, DeterministicRng(seed).fork(2))
        self.capacity = oram.position_map.num_blocks
        self.payload_bytes = self.config.block_bytes

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.capacity:
            raise KeyError(f"key {key} outside [0, {self.capacity})")

    def _access(self, key: int, new_value: Optional[bytes]) -> Optional[bytes]:
        """One oblivious access: fetch and optionally update in place.

        Reads and writes are indistinguishable: both perform the same path
        access and re-encryption (probabilistic encryption hides whether
        the payload changed).

        The payload is updated between ``begin_access`` and
        ``finish_access`` -- while the block is physically in the stash --
        so the write-back commits the new content.  An integrity layer
        (Merkle hashes ride the path write-back) therefore always hashes
        what was actually stored.
        """
        self._oram.begin_access([key])
        payloads = self._oram.tree.payloads
        old = payloads.get(key)
        if old is not None:
            old = self._cipher.decrypt(old)
        if new_value is not None:
            payloads[key] = self._cipher.encrypt(new_value)
        elif old is not None:
            # Re-encrypt on reads too, so ciphertexts never repeat.
            payloads[key] = self._cipher.encrypt(old)
        self._oram.finish_access()
        self._oram.drain_stash()
        return old

    def get(self, key: int) -> Optional[bytes]:
        """Read the value for ``key`` (None if never written)."""
        self._check_key(key)
        return self._access(key, None)

    def put(self, key: int, value: bytes) -> None:
        """Write ``value`` for ``key``."""
        self._check_key(key)
        if len(value) > self.payload_bytes:
            raise ValueError(f"value exceeds {self.payload_bytes} bytes")
        self._access(key, value)

    def delete(self, key: int) -> None:
        """Reset a key to the unwritten state (obliviously: same as a put)."""
        self._check_key(key)
        self._erase(key)

    def _erase(self, key: int) -> None:
        self._oram.begin_access([key])
        self._oram.tree.payloads.pop(key, None)
        self._oram.finish_access()
        self._oram.drain_stash()

    @property
    def oram(self) -> PathORAM:
        """The underlying ORAM (inspection / invariant checks in tests)."""
        return self._oram

    def access_count(self) -> int:
        """Total path accesses performed (real + background evictions)."""
        return self._oram.real_accesses + self._oram.dummy_accesses

    # ----------------------------------------------------------- persistence
    def save(self, path: str) -> None:
        """Checkpoint the store (tree + trusted state) to a file.

        The cipher key is NOT serialized: reopening requires the same key,
        exactly like a sealed-storage deployment.
        """
        from repro.oram.checkpoint import save_oram

        save_oram(self._oram, path)

    @classmethod
    def open(
        cls,
        path: str,
        key: bytes = b"\x13" * 16,
        seed: int = 7,
        observer: Optional[AccessObserver] = None,
        **options,
    ) -> "ObliviousKVStore":
        """Reopen a checkpointed store with the original cipher key.

        ``options`` are the extra constructor arguments of a subclass (the
        resilient store's ``fault_config``).
        """
        from repro.oram.checkpoint import restore_oram

        store = cls.__new__(cls)
        store._configure(**options)
        oram = restore_oram(
            path, rng=DeterministicRng(seed).fork(1), oram_factory=store._make_oram
        )
        store._attach(oram, key, seed, observer)
        return store
