"""Unit tests for the stash."""

import pytest

from repro.oram.block import Block
from repro.oram.stash import Stash


class TestStash:
    def test_add_and_pop(self):
        stash = Stash(capacity=4)
        stash.add(Block(1, 0))
        assert 1 in stash
        assert len(stash) == 1
        block = stash.pop(1)
        assert block is not None and block.addr == 1
        assert 1 not in stash

    def test_pop_missing_returns_none(self):
        stash = Stash(capacity=4)
        assert stash.pop(99) is None

    def test_peek_does_not_remove(self):
        stash = Stash(capacity=4)
        stash.add(Block(1, 0))
        assert stash.peek(1) is not None
        assert 1 in stash

    def test_duplicate_rejected(self):
        stash = Stash(capacity=4)
        stash.add(Block(1, 0))
        with pytest.raises(ValueError):
            stash.add(Block(1, 5))

    def test_over_capacity_is_soft(self):
        # The stash may transiently exceed capacity (path buffer semantics);
        # over_capacity() reports it, nothing throws.
        stash = Stash(capacity=2)
        for addr in range(5):
            stash.add(Block(addr, 0))
        assert stash.over_capacity()
        assert len(stash) == 5

    def test_max_occupancy_watermark(self):
        stash = Stash(capacity=10)
        for addr in range(7):
            stash.add(Block(addr, 0))
        for addr in range(7):
            stash.pop(addr)
        assert stash.max_occupancy == 7
        assert len(stash) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Stash(capacity=0)

    def test_iter_blocks_and_items(self):
        stash = Stash(capacity=10)
        for i in range(3):
            stash.add(Block(i, i))
        assert {b.addr for b in stash.iter_blocks()} == {0, 1, 2}
        assert {addr for addr, _ in stash.items()} == {0, 1, 2}
