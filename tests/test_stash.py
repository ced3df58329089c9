"""Unit tests for the stash: an address -> block word dict with a watermark."""

import pytest

from repro.oram.stash import Stash


def word(addr, leaf):
    return addr << 32 | leaf


class TestStash:
    def test_add_and_pop(self):
        stash = Stash(capacity=4)
        stash.add(word(1, 0))
        assert 1 in stash
        assert len(stash) == 1
        assert stash.blocks.pop(1) == word(1, 0)
        assert 1 not in stash

    def test_pop_missing_returns_none(self):
        stash = Stash(capacity=4)
        stash.add(word(1, 0))
        assert stash.blocks.pop(99, None) is None
        assert len(stash) == 1

    def test_peek_does_not_remove(self):
        stash = Stash(capacity=4)
        stash.add(word(1, 6))
        assert stash.blocks[1] & 0xFFFFFFFF == 6
        assert 1 in stash

    def test_duplicate_rejected(self):
        stash = Stash(capacity=4)
        stash.add(word(1, 0))
        with pytest.raises(ValueError, match="duplicate block 1"):
            stash.add(word(1, 5))
        assert stash.blocks == {1: word(1, 0)}

    def test_over_capacity_is_soft(self):
        # The stash may transiently exceed capacity (path buffer semantics):
        # nothing throws, and the length says so.
        stash = Stash(capacity=2)
        for addr in range(5):
            stash.add(word(addr, 0))
        assert len(stash) > stash.capacity
        assert len(stash) == 5

    def test_max_occupancy_watermark(self):
        stash = Stash(capacity=10)
        for addr in range(7):
            stash.add(word(addr, 0))
        for addr in range(7):
            del stash.blocks[addr]
        assert stash.max_occupancy == 7
        assert len(stash) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Stash(capacity=0)

    def test_iter_blocks_and_items(self):
        stash = Stash(capacity=10)
        for i in (2, 0, 1):
            stash.add(word(i, i + 7))
        # insertion order, each address keyed to its own word
        assert list(stash.blocks.items()) == [(2, word(2, 9)), (0, word(0, 7)), (1, word(1, 8))]
        assert all(addr == w >> 32 for addr, w in stash.blocks.items())
