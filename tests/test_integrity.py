"""Unit tests for the Merkle integrity layer."""

import pytest

from repro.config import ORAMConfig
from repro.oram.integrity import (
    IntegrityViolationError,
    MerkleTree,
    VerifiedPathORAM,
)
from repro.oram.tree import BinaryTree
from repro.utils.bitops import LEAF_BITS
from repro.utils.rng import DeterministicRng


def word(addr, leaf):
    return addr << LEAF_BITS | leaf


def make_tree(levels=3, bucket_size=2):
    tree = BinaryTree(levels=levels, bucket_size=bucket_size)
    tree.write_bucket(0, 0, [word(1, 3)])
    tree.write_bucket(3, 5, [word(2, 5)])
    tree.payloads[2] = b"payload"
    return tree


class TestMerkleTree:
    def test_fresh_tree_verifies(self):
        tree = make_tree()
        merkle = MerkleTree(tree)
        merkle.verify_all()
        for leaf in range(tree.num_leaves):
            merkle.verify_path(leaf)

    def test_root_changes_with_content(self):
        tree = make_tree()
        merkle = MerkleTree(tree)
        before = merkle.root
        tree.write_bucket(2, 7, [word(9, 7)])
        merkle.update_path(7)
        assert merkle.root != before
        merkle.verify_all()

    def test_unupdated_write_is_detected(self):
        # An adversary swaps a bucket without fixing the hashes.
        tree = make_tree()
        merkle = MerkleTree(tree)
        tree.write_bucket(3, 5, [word(666, 5)])
        tree.payloads[666] = b"forged"
        with pytest.raises(IntegrityViolationError):
            merkle.verify_path(5)

    def test_tampered_payload_detected(self):
        tree = make_tree()
        merkle = MerkleTree(tree)
        assert tree.bucket(tree.bucket_index(3, 5)) == [word(2, 5)]
        tree.payloads[2] = b"evil"
        with pytest.raises(IntegrityViolationError):
            merkle.verify_path(5)

    def test_tampered_hash_detected(self):
        tree = make_tree()
        merkle = MerkleTree(tree)
        index = tree.bucket_index(3, 5)
        merkle.overwrite_hash(index, b"\x00" * 32)
        with pytest.raises(IntegrityViolationError):
            merkle.verify_path(5)

    def test_off_path_changes_not_checked_by_path_verify(self):
        # Path verification is local: leaf 0's path does not cover leaf 7's
        # leaf bucket, but verify_all does.
        tree = make_tree()
        merkle = MerkleTree(tree)
        far_index = tree.bucket_index(3, 7)
        tree.bucket(far_index).append(word(99, 7))
        merkle.verify_path(0)  # unaffected path still verifies
        with pytest.raises(IntegrityViolationError):
            merkle.verify_all()


class TestVerifiedPathORAM:
    def make(self, levels=5):
        config = ORAMConfig(levels=levels, bucket_size=3, stash_blocks=40, utilization=0.5)
        return VerifiedPathORAM(config, DeterministicRng(3))

    def test_normal_operation_verifies_every_access(self):
        oram = self.make()
        for addr in range(20):
            oram.access([addr])
        oram.dummy_access()
        assert oram.verified_paths == 21
        oram.merkle.verify_all()
        oram.check_invariants()

    def test_tampering_between_accesses_is_caught(self):
        oram = self.make()
        oram.access([1])
        target = oram.position_map.leaf(5)
        index = oram.tree.bucket_index(oram.config.levels, target)
        # The adversary injects a forged block into the leaf bucket.
        bucket = oram.tree.bucket(index)
        if len(bucket) < oram.config.bucket_size:
            bucket.append(word(12345 % oram.position_map.num_blocks, target))
        else:
            oram.tree.payloads[bucket[0] >> LEAF_BITS] = b"forged"
        with pytest.raises(IntegrityViolationError):
            oram.access([5])

    def test_stale_replay_is_caught(self):
        # Replay: restore an old bucket image after it was overwritten.
        oram = self.make()
        leaf = oram.position_map.leaf(7)
        index = oram.tree.bucket_index(0, leaf)  # the root bucket
        stale = list(oram.tree.bucket(index))
        for addr in range(10):
            oram.access([addr])
        oram.tree.bucket(index)[:] = stale  # adversary rewinds the root bucket
        with pytest.raises(IntegrityViolationError):
            oram.access([7])


class TestSingleBitflipProperty:
    """Seeded property: a single bit-flip anywhere on an accessed path --
    any byte of any block of any bucket, or any byte of any stored hash
    the verification consumes -- is always detected by the Merkle layer.

    Exhaustive over positions; the flipped bit within each byte is drawn
    from a fixed seed, so the run is deterministic yet exercises varied
    bit positions across the sweep.
    """

    def _populated_oram(self):
        config = ORAMConfig(levels=5, bucket_size=3, stash_blocks=40, utilization=0.5)
        oram = VerifiedPathORAM(config, DeterministicRng(17))
        for addr in range(min(24, oram.position_map.num_blocks)):
            oram.begin_access([addr])
            oram.tree.payloads[addr] = bytes([addr & 0xFF, 0xA5, addr ^ 0x3C, 0x7E])
            oram.finish_access()
        oram.drain_stash()
        oram.merkle.verify_all()
        return oram

    @staticmethod
    def _flip(data: bytes, byte_index: int, bit: int) -> bytes:
        return (
            data[:byte_index]
            + bytes([data[byte_index] ^ bit])
            + data[byte_index + 1 :]
        )

    def test_every_payload_byte_flip_detected(self):
        oram = self._populated_oram()
        rng = DeterministicRng(23)
        leaves = (0, 5, oram.tree.num_leaves - 1)
        checked = 0
        for leaf in leaves:
            for index in oram.tree.path_indices(leaf):
                for held in oram.tree.bucket(index):
                    addr = held >> LEAF_BITS
                    original = oram.tree.payloads.get(addr)
                    if not original:
                        continue
                    for byte_index in range(len(original)):
                        bit = 1 << rng.randbelow(8)
                        oram.tree.payloads[addr] = self._flip(original, byte_index, bit)
                        with pytest.raises(IntegrityViolationError):
                            oram.merkle.verify_path(leaf)
                        oram.tree.payloads[addr] = original
                        checked += 1
            # Restoration left the path pristine.
            oram.merkle.verify_path(leaf)
        assert checked > 0

    def test_every_metadata_bit_flip_detected(self):
        # The serialization also commits to each block's address and leaf
        # label; single-bit corruption of either must be caught too.
        oram = self._populated_oram()
        rng = DeterministicRng(29)
        leaf = oram.tree.num_leaves // 2
        for index in oram.tree.path_indices(leaf):
            bucket = oram.tree.bucket(index)
            for slot, original in enumerate(bucket):
                for shift in (LEAF_BITS, 0):  # the address, then the leaf
                    bit = 1 << rng.randbelow(8)
                    bucket[slot] = original ^ (bit << shift)
                    with pytest.raises(IntegrityViolationError):
                        oram.merkle.verify_path(leaf)
                    bucket[slot] = original
        oram.merkle.verify_path(leaf)

    def test_every_stored_hash_byte_flip_detected(self):
        # Verification consumes the stored hash of every path node and of
        # every off-path child (sibling) of a path node; flipping any byte
        # of any of them must break the chain to the trusted root.
        oram = self._populated_oram()
        rng = DeterministicRng(31)
        leaf = 3
        path = oram.tree.path_indices(leaf)
        consumed = set(path)
        for index in path:
            for child in (2 * index + 1, 2 * index + 2):
                if child < oram.tree.num_buckets:
                    consumed.add(child)
        for index in sorted(consumed):
            stored = oram.merkle.stored_hash(index)
            for byte_index in range(len(stored)):
                bit = 1 << rng.randbelow(8)
                oram.merkle.overwrite_hash(index, self._flip(stored, byte_index, bit))
                with pytest.raises(IntegrityViolationError):
                    oram.merkle.verify_path(leaf)
                oram.merkle.overwrite_hash(index, stored)
        oram.merkle.verify_path(leaf)
