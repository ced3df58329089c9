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


class TestImage:
    """A tree starts as its DRAM image: ``populate`` fills slots, an
    untouched bucket is read from them, and a tree every access has
    reached drops the image."""

    def populated(self):
        tree = BinaryTree(levels=2, bucket_size=2)
        # Leaf 1's third block climbs one level; leaf 0's six fill their
        # path, and the last one spills.
        spilled = tree.populate([1, 1, 3, 1, 0, 0, 0, 0, 0, 0])
        return tree, spilled

    def test_populate_places_deepest_first_in_address_order(self):
        tree, spilled = self.populated()
        assert list(tree.words(4)) == [word(0, 1), word(1, 1)]
        assert list(tree.words(6)) == [word(2, 3)]
        assert list(tree.words(1)) == [word(3, 1), word(6, 0)]
        assert list(tree.words(3)) == [word(4, 0), word(5, 0)]
        assert list(tree.words(0)) == [word(7, 0), word(8, 0)]
        assert list(tree.words(2)) == list(tree.words(5)) == []
        assert spilled == [word(9, 0)]
        assert tree.occupancy() == 9
        assert tree._buckets == [None] * tree.num_buckets  # nothing materialised

    def test_bucket_materialises_and_read_leaves_the_shared_empty(self):
        tree, _ = self.populated()
        assert tree.bucket(6) == [word(2, 3)] and tree.bucket(6) is tree.bucket(6)
        blocks = {}
        assert tree.read_path_into(1, blocks) == 6
        assert list(blocks) == [7, 8, 3, 6, 0, 1]
        assert all(tree._buckets[index] == () for index in tree.path_indices(1))
        assert tree.bucket(4) == []

    def test_a_tree_every_access_reached_drops_its_image(self):
        tree, _ = self.populated()
        blocks = {}
        for leaf in range(tree.num_leaves):
            assert tree._image is not None
            tree.read_path_into(leaf, blocks)
        assert tree._image is None
        assert len(blocks) == 9 and tree.occupancy() == 0

    def test_writes_and_materialisation_count_as_touches(self):
        tree, _ = self.populated()
        tree.write_bucket_at(0, [])
        for index in range(1, tree.num_buckets):
            assert tree._image is not None
            tree.bucket(index)
        assert tree._image is None
        assert tree.occupancy() == 7  # the root's two blocks were overwritten


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
