"""Bit-level helpers used throughout the ORAM and super block code.

The super block scheme (paper section 3.2) only merges blocks whose program
addresses differ in the last ``k`` bits, i.e. blocks belonging to the same
*aligned* group of size ``2**k``.  These helpers centralize that alignment
arithmetic, as well as the common-prefix computation used when evicting
stash blocks onto a path of the binary tree.
"""

from __future__ import annotations

#: A block word is ``addr << LEAF_BITS | leaf`` (:mod:`repro.oram.tree`):
#: the leaf label is its low ``LEAF_BITS`` bits, the address the rest.
LEAF_BITS = 32
LEAF_MASK = (1 << LEAF_BITS) - 1


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``k`` such that ``2**k == value``.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return value & ~(alignment - 1)


def group_base(addr: int, size: int) -> int:
    """Base address of the aligned group of ``size`` blocks containing ``addr``.

    A super block of size ``size = 2**k`` always occupies the address range
    ``[group_base(addr, size), group_base(addr, size) + size)``.
    """
    return align_down(addr, size)


def neighbor_group_base(addr: int, size: int) -> int:
    """Base address of the *neighbor* group of the size-``size`` group of ``addr``.

    Two groups of size ``n`` are neighbors (paper section 4.1) when together
    they form an aligned group of size ``2n``.  E.g. with ``size == 2``,
    group (0x04, 0x05) has neighbor (0x06, 0x07), never (0x02, 0x03).
    """
    base = group_base(addr, size)
    return base ^ size


def common_prefix_length(leaf_a: int, leaf_b: int, depth: int) -> int:
    """Number of tree levels shared by the paths to ``leaf_a`` and ``leaf_b``.

    Leaves are labelled ``0 .. 2**depth - 1``.  The paths from the root to
    two leaves share ``common_prefix_length + 1`` buckets counting the root,
    i.e. the return value is the deepest *level* (root = level 0) at which a
    block mapped to ``leaf_a`` may be stored when writing back path
    ``leaf_b``.
    """
    if depth == 0:
        return 0
    differing = leaf_a ^ leaf_b
    if differing == 0:
        return depth
    # The most significant differing bit (within `depth` bits) determines the
    # first level at which the two paths diverge.
    return depth - differing.bit_length()
