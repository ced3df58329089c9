"""Consistency checker for an ORAM instance (the recovery ladder's auditor).

``fsck`` for an oblivious store: walks the tree and the on-chip blocks
against the position map, and accumulates every violation of the tree-ORAM
invariants into a :class:`FsckReport` instead of dying on the first assert
(the point of a recovery audit is a complete picture).  For Merkle-verified
ORAMs it also recomputes the whole hash tree from the bucket contents and
compares the fresh root against the trusted on-chip root -- the rollback
adversary's last hiding place.

The resilient access path runs this after every checkpoint restore and
before every checkpoint capture; tests use it to prove recovery really
reconverged rather than merely stopped raising.

:func:`audit_tree` is the one audit of the three tree schemes (Path ORAM,
Ring ORAM, the Shi tree ORAM): :func:`run_fsck` reports it, and their
``check_invariants`` (:class:`~repro.controller.mixins.TreeAuditMixin`)
raises its first finding.  :func:`run_fsck_bank` audits every channel of a
:class:`~repro.controller.sharded.ShardedORAMBank`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, List

from repro.utils.bitops import LEAF_BITS, LEAF_MASK


class FsckError(RuntimeError):
    """The post-recovery audit found the store inconsistent."""

    def __init__(self, report: "FsckReport"):
        super().__init__(report.summary())
        self.report = report


@dataclass
class FsckReport:
    """Outcome of one consistency audit."""

    blocks_in_tree: int = 0
    blocks_in_stash: int = 0
    expected_blocks: int = 0
    root_hash_checked: bool = False
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        verdict = "clean" if self.ok else f"{len(self.errors)} error(s)"
        lines = [
            f"fsck: {verdict} -- {self.blocks_in_tree} blocks in tree, "
            f"{self.blocks_in_stash} in stash, {self.expected_blocks} expected"
            + (", root hash verified" if self.root_hash_checked else "")
        ]
        lines.extend(f"  - {error}" for error in self.errors)
        return "\n".join(lines)


def run_fsck(oram, max_errors: int = 16) -> FsckReport:
    """Audit an oblivious store (a tree scheme: Path ORAM, Ring ORAM, the
    Shi tree) and report every violation :func:`audit_tree` finds."""
    return oram.audit(max_errors)


def audit_tree(
    tree, leaf_of, on_chip, num_blocks: int, merkle=None, max_errors: int = 16
) -> FsckReport:
    """The tree-ORAM audit: one walk over the buckets and the on-chip blocks.

    ``tree`` is the scheme's :class:`~repro.oram.tree.BinaryTree`,
    ``leaf_of(addr)`` the mapped leaf of an address, ``on_chip`` the
    block words held on-chip by address (stash or overflow area), and
    ``merkle`` the trusted hash tree of a Merkle-verified ORAM.  Checks:

    * every bucket holds at most ``Z`` blocks;
    * every block address is in ``[0, num_blocks)``;
    * every block appears exactly once across tree and on-chip blocks;
    * every block's own leaf (the low bits of its word) equals its mapped
      leaf (eviction routes a block by the former, placement is judged by
      the latter);
    * every tree block sits on the path of its mapped leaf;
    * every address is present -- a missing one is reported by name --
      and the census adds up;
    * with ``merkle``: a from-scratch recomputation of the hash tree
      reproduces the trusted root.

    Each block is judged where the walk meets it, so the audit is O(B)
    in the block count, and its only scratch space is one
    ``bytearray(num_blocks)`` of presence flags.  Findings stop at
    ``max_errors`` (a badly mangled tree would otherwise produce one per
    block); ``check_invariants`` asks for one.
    """
    report = FsckReport(expected_blocks=num_blocks)
    report.errors.extend(
        islice(_tree_findings(report, tree, leaf_of, on_chip, merkle), max_errors)
    )
    return report


def _tree_findings(report: FsckReport, tree, leaf_of, on_chip, merkle) -> Iterator[str]:
    """The findings of :func:`audit_tree`, lazily, counting into ``report``."""
    num_blocks = report.expected_blocks
    present = bytearray(num_blocks)
    z = tree.bucket_size
    for level in range(tree.levels + 1):
        # Bucket ``index`` of this level lies on the path of ``leaf`` iff
        # ``first + (leaf >> shift) == index``.
        first, shift = (1 << level) - 1, tree.levels - level
        for index in range(first, 2 * first + 1):
            bucket = tree.words(index)
            if len(bucket) > z:
                yield f"bucket {index} holds {len(bucket)} blocks > Z={z}"
            for word in bucket:
                report.blocks_in_tree += 1
                addr = word >> LEAF_BITS
                if not 0 <= addr < num_blocks:
                    yield f"bucket {index}: block address {addr} out of range"
                    continue
                if present[addr]:
                    yield (
                        f"block {addr} duplicated (tree bucket {index} "
                        "and an earlier bucket)"
                    )
                    continue
                present[addr] = 1
                mapped = leaf_of(addr)
                if word & LEAF_MASK != mapped:
                    yield (
                        f"block {addr} (tree bucket {index}): copy leaf "
                        f"{word & LEAF_MASK} != mapped leaf {mapped}"
                    )
                if first + (mapped >> shift) != index:
                    yield f"block {addr} (leaf {mapped}) off-path at bucket {index}"
    for addr, word in on_chip.items():
        report.blocks_in_stash += 1
        if not 0 <= addr < num_blocks:
            yield f"stash: block address {addr} out of range"
            continue
        if present[addr]:
            yield f"block {addr} in both stash and tree"
            continue
        present[addr] = 1
        mapped = leaf_of(addr)
        if word & LEAF_MASK != mapped:
            yield f"block {addr} (stash): copy leaf {word & LEAF_MASK} != mapped leaf {mapped}"
    missing = present.find(0)
    while missing >= 0:
        yield f"block {missing} missing from both tree and stash"
        missing = present.find(0, missing + 1)
    found = num_blocks - present.count(0)
    if found != num_blocks:
        yield (
            f"block census mismatch: {found} distinct blocks found, "
            f"{num_blocks} expected"
        )
    if merkle is not None:
        # Recompute the whole hash tree from scratch and compare roots:
        # agreement proves the bucket contents are exactly what the trusted
        # root commits to (no stale image survived recovery).
        from repro.oram.integrity import MerkleTree

        report.root_hash_checked = True
        if MerkleTree(tree).root != merkle.root:
            yield (
                "root hash disagreement: recomputed root does not match the "
                "trusted on-chip root"
            )


def run_fsck_bank(bank, max_errors: int = 16) -> FsckReport:
    """Audit every channel of a sharded ORAM bank into one merged report.

    Each shard's functional ORAM gets a full :func:`run_fsck`; errors are
    prefixed with the shard index, censuses are summed, and the merged
    ``root_hash_checked`` is true only when every audited shard checked
    one.
    """
    shards = bank.shards
    merged = FsckReport(root_hash_checked=bool(shards))
    for index, shard in enumerate(shards):
        report = run_fsck(shard.oram, max_errors=max_errors)
        merged.blocks_in_tree += report.blocks_in_tree
        merged.blocks_in_stash += report.blocks_in_stash
        merged.expected_blocks += report.expected_blocks
        merged.root_hash_checked = merged.root_hash_checked and report.root_hash_checked
        for error in report.errors:
            if len(merged.errors) < max_errors:
                merged.errors.append(f"shard {index}: {error}")
    return merged


def assert_consistent(oram, max_errors: int = 16) -> FsckReport:
    """Run :func:`run_fsck` and raise :class:`FsckError` on any finding."""
    report = run_fsck(oram, max_errors=max_errors)
    if not report.ok:
        raise FsckError(report)
    return report
