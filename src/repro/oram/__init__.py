"""Path ORAM substrate (paper sections 2.2-2.6).

This package implements the functional Path ORAM the paper builds on:

* :mod:`repro.oram.tree` / :mod:`repro.oram.stash` -- the binary-tree
  storage, buckets of ``Z`` block words (``addr << 32 | leaf``), and the
  on-chip stash.
* :mod:`repro.oram.position_map` -- the position map, including the PosMap
  block layout that carries the merge/break/prefetch bits used by PrORAM.
* :mod:`repro.oram.path_oram` -- the five-step access protocol plus
  background eviction.
* :mod:`repro.oram.recursion` -- recursive/unified ORAM accounting with an
  on-chip PosMap block cache.
* :mod:`repro.oram.super_block` -- the super block invariant and the prior
  art *static* super block scheme (section 3).
* :mod:`repro.oram.crypto` / :mod:`repro.oram.kv_store` -- probabilistic
  encryption and a functional oblivious key-value store built on the tree.
"""

from repro.oram.integrity import IntegrityViolationError, MerkleTree, VerifiedPathORAM
from repro.oram.path_oram import PathORAM
from repro.oram.position_map import PositionMap
from repro.oram.recursion import PosMapHierarchy
from repro.oram.ring_oram import RingORAM
from repro.oram.stash import Stash
from repro.oram.super_block import (
    BaselineScheme,
    PrefetchTracker,
    StaticSuperBlockScheme,
    SuperBlockScheme,
)
from repro.oram.tree import BinaryTree
from repro.oram.tree_oram import ShiTreeORAM

__all__ = [
    "BaselineScheme",
    "BinaryTree",
    "IntegrityViolationError",
    "MerkleTree",
    "PathORAM",
    "PosMapHierarchy",
    "PositionMap",
    "PrefetchTracker",
    "RingORAM",
    "ShiTreeORAM",
    "Stash",
    "StaticSuperBlockScheme",
    "SuperBlockScheme",
    "VerifiedPathORAM",
]
