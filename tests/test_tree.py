"""Unit tests for the Path ORAM binary tree."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oram.tree import BinaryTree
from repro.utils.bitops import LEAF_BITS, LEAF_MASK


def word(addr, leaf):
    return addr << LEAF_BITS | leaf


class TestGeometry:
    def test_counts(self):
        tree = BinaryTree(levels=3, bucket_size=4)
        assert tree.num_leaves == 8
        assert tree.num_buckets == 15

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BinaryTree(levels=0, bucket_size=4)
        with pytest.raises(ValueError):
            BinaryTree(levels=3, bucket_size=0)

    def test_root_index(self):
        tree = BinaryTree(levels=3, bucket_size=4)
        for leaf in range(8):
            assert tree.bucket_index(0, leaf) == 0

    def test_leaf_indices_distinct(self):
        tree = BinaryTree(levels=3, bucket_size=4)
        leaf_indices = {tree.bucket_index(3, leaf) for leaf in range(8)}
        assert leaf_indices == set(range(7, 15))

    def test_path_indices_figure1(self):
        # Figure 1: an L=3 tree; path 5 = root, then internal nodes, leaf 5.
        tree = BinaryTree(levels=3, bucket_size=4)
        path = tree.path_indices(5)
        assert len(path) == 4
        assert path[0] == 0
        assert path[-1] == 7 + 5
        # Each node is a child of the previous one.
        for parent, child in zip(path, path[1:]):
            assert (child - 1) // 2 == parent

    def test_path_indices_out_of_range(self):
        tree = BinaryTree(levels=3, bucket_size=4)
        with pytest.raises(ValueError):
            tree.path_indices(8)
        with pytest.raises(ValueError):
            tree.path_indices(-1)

    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_two_paths_share_exactly_prefix(self, levels, data):
        tree = BinaryTree(levels=levels, bucket_size=1)
        a = data.draw(st.integers(min_value=0, max_value=tree.num_leaves - 1))
        b = data.draw(st.integers(min_value=0, max_value=tree.num_leaves - 1))
        shared = set(tree.path_indices(a)) & set(tree.path_indices(b))
        from repro.utils.bitops import common_prefix_length

        assert len(shared) == common_prefix_length(a, b, levels) + 1


class TestStorage:
    def test_read_path_empties_buckets(self):
        tree = BinaryTree(levels=3, bucket_size=2)
        tree.write_bucket(0, 0, [word(1, 0)])
        tree.write_bucket(3, 5, [word(2, 5), word(3, 5)])
        blocks = {}
        assert tree.read_path_into(5, blocks) == 3
        assert blocks == {1: word(1, 0), 2: word(2, 5), 3: word(3, 5)}
        assert tree.occupancy() == 0

    def test_read_path_leaves_other_paths(self):
        tree = BinaryTree(levels=3, bucket_size=2)
        tree.write_bucket(3, 0, [word(9, 0)])
        blocks = {}
        assert tree.read_path_into(7, blocks) == 0
        assert blocks == {}
        assert tree.occupancy() == 1

    def test_write_bucket_overflow(self):
        tree = BinaryTree(levels=2, bucket_size=2)
        with pytest.raises(ValueError):
            tree.write_bucket(0, 0, [word(i, 0) for i in range(3)])

    def test_find(self):
        tree = BinaryTree(levels=2, bucket_size=2)
        tree.write_bucket(1, 2, [word(42, 2)])
        assert tree.find(42)
        assert not tree.find(43)

    def test_iter_blocks(self):
        tree = BinaryTree(levels=2, bucket_size=2)
        tree.write_bucket(0, 0, [word(1, 0)])
        tree.write_bucket(2, 3, [word(2, 3)])
        assert {w >> LEAF_BITS for w in tree.iter_blocks()} == {1, 2}


class TestBlockWords:
    """A block is one int, ``addr << 32 | leaf``: the header hardware stores."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=LEAF_MASK),
            ),
            unique_by=lambda block: block[0],
            max_size=8,
        )
    )
    def test_sorted_bucket_is_address_order(self, blocks):
        bucket = [word(addr, leaf) for addr, leaf in blocks]
        assert sorted(bucket) == [word(addr, leaf) for addr, leaf in sorted(blocks)]
        assert [(w >> LEAF_BITS, w & LEAF_MASK) for w in bucket] == blocks

    def test_the_leaf_must_fit_the_word(self):
        # Refused before anything is allocated (a 31-level tree would hold
        # 2**32 - 1 buckets, so the largest legal height goes untested).
        with pytest.raises(ValueError, match=r"levels must be in \[1, 32\), not 32"):
            BinaryTree(levels=32, bucket_size=1)
        with pytest.raises(ValueError, match=r"not 40"):
            BinaryTree(levels=40, bucket_size=1)
