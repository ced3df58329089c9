"""Unit tests for the probabilistic encryption layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oram.crypto import (
    ProbabilisticCipher,
    open_block,
    seal_block,
    seal_bucket,
    seal_dummy,
)
from repro.utils.rng import DeterministicRng


def make_cipher(seed=1):
    return ProbabilisticCipher(b"k" * 16, DeterministicRng(seed))


class TestCipher:
    def test_roundtrip(self):
        cipher = make_cipher()
        blob = cipher.encrypt(b"hello world")
        assert cipher.decrypt(blob) == b"hello world"

    def test_probabilistic(self):
        # The same plaintext encrypts to different ciphertexts every time.
        cipher = make_cipher()
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_fixed_nonce_is_deterministic(self):
        cipher = make_cipher()
        nonce = b"n" * 16
        assert cipher.encrypt(b"x", nonce) == cipher.encrypt(b"x", nonce)

    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            ProbabilisticCipher(b"short")

    def test_rejects_bad_nonce(self):
        with pytest.raises(ValueError):
            make_cipher().encrypt(b"x", nonce=b"tiny")

    def test_rejects_truncated_ciphertext(self):
        with pytest.raises(ValueError):
            make_cipher().decrypt(b"abc")

    @given(st.binary(max_size=300))
    def test_roundtrip_property(self, payload):
        cipher = make_cipher()
        assert cipher.decrypt(cipher.encrypt(payload)) == payload


class TestBlockSealing:
    def test_seal_open_roundtrip(self):
        cipher = make_cipher()
        blob = seal_block(cipher, addr=42, leaf=7, data=b"payload", block_bytes=32)
        opened = open_block(cipher, blob, block_bytes=32)
        assert opened is not None
        addr, leaf, data = opened
        assert addr == 42 and leaf == 7
        assert data.rstrip(b"\0") == b"payload"

    def test_dummy_opens_to_none(self):
        cipher = make_cipher()
        blob = seal_dummy(cipher, block_bytes=32)
        assert open_block(cipher, blob, block_bytes=32) is None

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            seal_block(make_cipher(), 1, 1, b"x" * 33, block_bytes=32)


class TestBucketSealing:
    def test_bucket_always_z_slots(self):
        # Section 2.2: buckets with fewer than Z blocks are padded with
        # indistinguishable dummies.
        cipher = make_cipher()
        image = seal_bucket(cipher, [1 << 32 | 5], {1: b"a"}, bucket_size=4, block_bytes=16)
        assert len(image) == 4
        addr, leaf, data = open_block(cipher, image[0], block_bytes=16)
        assert (addr, leaf, data.rstrip(b"\0")) == (1, 5, b"a")
        lengths = {len(slot) for slot in image}
        assert len(lengths) == 1  # identical ciphertext sizes

    def test_bucket_overflow_rejected(self):
        cipher = make_cipher()
        blocks = [i << 32 | 0 for i in range(3)]
        with pytest.raises(ValueError):
            seal_bucket(cipher, blocks, {}, bucket_size=2, block_bytes=16)

    def test_real_and_dummy_indistinguishable_without_key(self):
        # Identical sizes and fresh nonces: the serialized images carry no
        # structural marker of realness.  (A weak but meaningful check: no
        # byte position is constant across many dummy encryptions.)
        cipher = make_cipher()
        dummies = [seal_dummy(cipher, 16) for _ in range(64)]
        constant_positions = [
            i
            for i in range(len(dummies[0]))
            if len({d[i] for d in dummies}) == 1
        ]
        assert not constant_positions
