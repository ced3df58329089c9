"""Probabilistic encryption for ORAM blocks (paper section 2.1).

"Data stored in ORAMs should be encrypted using probabilistic encryption to
conceal the data content and also hide which memory location, if any, is
updated."  This module provides the encryption layer the functional store
and the adversary-facing bucket serialization use.

The cipher is a keystream XOR keyed by SHA-256 over (key, nonce, counter).
Every encryption draws a fresh random nonce, so encrypting the same
plaintext twice yields unrelated ciphertexts, and dummy blocks (random
bytes) are indistinguishable from real ones.  This is a *simulation
stand-in* for hardware AES-CTR -- adequate for the reproduction's security
experiments, NOT a vetted cryptographic implementation.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Mapping, Optional, Sequence, Tuple

from repro.utils.bitops import LEAF_BITS, LEAF_MASK
from repro.utils.rng import DeterministicRng

NONCE_BYTES = 16


class ProbabilisticCipher:
    """Nonce-randomized XOR-keystream cipher over fixed-size blocks."""

    def __init__(self, key: bytes, rng: Optional[DeterministicRng] = None):
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._key = key
        self._rng = rng or DeterministicRng(0xC0FFEE)

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        out = bytearray()
        counter = 0
        while len(out) < length:
            out.extend(
                hashlib.sha256(self._key + nonce + struct.pack("<Q", counter)).digest()
            )
            counter += 1
        return bytes(out[:length])

    def random_nonce(self) -> bytes:
        return self._rng.getrandbits(NONCE_BYTES * 8).to_bytes(NONCE_BYTES, "little")

    def encrypt(self, plaintext: bytes, nonce: Optional[bytes] = None) -> bytes:
        """Encrypt with a fresh random nonce; returns nonce || ciphertext."""
        if nonce is None:
            nonce = self.random_nonce()
        if len(nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
        stream = self._keystream(nonce, len(plaintext))
        body = bytes(p ^ s for p, s in zip(plaintext, stream))
        return nonce + body

    def decrypt(self, blob: bytes) -> bytes:
        """Invert :meth:`encrypt`."""
        if len(blob) < NONCE_BYTES:
            raise ValueError("ciphertext too short to contain a nonce")
        nonce, body = blob[:NONCE_BYTES], blob[NONCE_BYTES:]
        stream = self._keystream(nonce, len(body))
        return bytes(c ^ s for c, s in zip(body, stream))


#: Header prepended to real blocks inside a bucket image: (addr, leaf).
_BLOCK_HEADER = struct.Struct("<qq")
_DUMMY_ADDR = -1


def seal_block(
    cipher: ProbabilisticCipher, addr: int, leaf: int, data: bytes, block_bytes: int
) -> bytes:
    """Serialize and encrypt one real block for the untrusted tree."""
    if len(data) > block_bytes:
        raise ValueError("payload larger than block size")
    plain = _BLOCK_HEADER.pack(addr, leaf) + data.ljust(block_bytes, b"\0")
    return cipher.encrypt(plain)


def seal_dummy(cipher: ProbabilisticCipher, block_bytes: int) -> bytes:
    """Encrypted dummy block, indistinguishable from a real one."""
    plain = _BLOCK_HEADER.pack(_DUMMY_ADDR, 0) + b"\0" * block_bytes
    return cipher.encrypt(plain)


def open_block(
    cipher: ProbabilisticCipher, blob: bytes, block_bytes: int
) -> Optional[Tuple[int, int, bytes]]:
    """Decrypt a bucket slot; ``None`` for dummies, else (addr, leaf, data)."""
    plain = cipher.decrypt(blob)
    addr, leaf = _BLOCK_HEADER.unpack_from(plain)
    if addr == _DUMMY_ADDR:
        return None
    return addr, leaf, plain[_BLOCK_HEADER.size : _BLOCK_HEADER.size + block_bytes]


def seal_bucket(
    cipher: ProbabilisticCipher,
    words: Sequence[int],
    payloads: Mapping[int, bytes],
    bucket_size: int,
    block_bytes: int,
) -> list:
    """Adversary-visible image of one bucket: always ``Z`` ciphertexts.

    ``words`` are the bucket's block words, ``payloads`` the tree's bytes
    by address.  Buckets with fewer than ``Z`` real blocks are padded with
    encrypted dummies (section 2.2), so the slot count leaks nothing.
    """
    if len(words) > bucket_size:
        raise ValueError("too many real blocks for bucket")
    image = [
        seal_block(
            cipher, (addr := word >> LEAF_BITS), word & LEAF_MASK,
            payloads.get(addr) or b"", block_bytes,
        )
        for word in words
    ]
    while len(image) < bucket_size:
        image.append(seal_dummy(cipher, block_bytes))
    return image
