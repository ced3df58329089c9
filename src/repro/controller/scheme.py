"""The ``ORAMScheme`` protocol: what the controller requires of a scheme.

Every oblivious-memory construction in this repository -- Path ORAM, Ring
ORAM and the Shi et al. binary-tree ORAM -- implements this protocol, so
``repro parity``, the cross-scheme parity suite and ``fsck`` can drive any
of them without knowing which one they hold.  (:func:`build_scheme` builds
such an ORAM *construction*; the super block *policy* a controller runs on
top of one comes from :func:`repro.controller.sharded.make_policy`.)

The protocol splits one oblivious access into the two halves the paper's
pipeline needs (everything between them runs with the accessed blocks
on-chip, which is where merge/break remapping happens):

* :meth:`ORAMScheme.begin_access` -- fetch a (super) block: position
  lookup, path/slot read, remap of the members;
* :meth:`ORAMScheme.finish_access` -- commit: path write-back or
  scheme-specific maintenance (eviction counters, reshuffles).

plus the background machinery the controller schedules around demand
accesses: :meth:`dummy_access` (one background eviction),
:meth:`drain_stash` (bounded eviction loop), and
:meth:`check_invariants` (structural audit used by tests, ``fsck``, and
debug builds).

Schemes are *virtual* subclasses (``ORAMScheme.register``) rather than
real ones: the hot paths of :class:`~repro.oram.path_oram.PathORAM` are
pinned bit-identical by the golden test, and a registered subclass keeps
``isinstance`` working with zero MRO or metaclass overhead.  The
cross-scheme parity suite enforces that every registered scheme actually
provides the protocol surface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

#: Methods and properties every registered scheme must provide.  The
#: parity suite asserts this surface exists on each implementation.
PROTOCOL_SURFACE = (
    "begin_access",
    "finish_access",
    "access",
    "dummy_access",
    "drain_stash",
    "check_invariants",
    "num_blocks",
    "stash_occupancy",
)


class ORAMScheme(ABC):
    """Interface between an oblivious-memory construction and the controller.

    Addresses are logical block numbers in ``[0, num_blocks)``.  A scheme
    owns all of its server-side state; the controller only ever sees the
    block words :meth:`begin_access` returns (``addr << 32 | leaf``, the
    header a bucket stores; :mod:`repro.oram.tree`).
    """

    @abstractmethod
    def begin_access(
        self, addrs: Sequence[int], new_leaf: Optional[int] = None
    ) -> Mapping[int, int]:
        """Fetch the (super) block ``addrs`` and remap its members.

        Returns each member's block word after the remap.  Between this
        call and :meth:`finish_access` every member is on-chip, so a
        caller may update its payload (``tree.payloads[addr]``).
        ``new_leaf`` overrides the random remap target (tests only).
        """

    @abstractmethod
    def finish_access(self) -> None:
        """Commit the in-flight access (write-back / maintenance)."""

    def access(
        self, addrs: Sequence[int], new_leaf: Optional[int] = None
    ) -> Mapping[int, int]:
        """One complete access: :meth:`begin_access` + :meth:`finish_access`."""
        fetched = self.begin_access(addrs, new_leaf)
        self.finish_access()
        return fetched

    @abstractmethod
    def dummy_access(self, kind: str = "dummy") -> None:
        """One background eviction."""

    @abstractmethod
    def drain_stash(self) -> int:
        """Background-evict until the stash/overflow is within limit.

        Returns the number of dummy accesses issued (each is a charged
        path access for the controller's timing model).
        """

    @abstractmethod
    def check_invariants(self) -> None:
        """Audit structural invariants; raise ``AssertionError`` on damage."""

    def remap_group(self, addrs: Sequence[int], leaf: Optional[int] = None) -> int:
        """Re-point a group of on-chip members to one shared position.

        Only meaningful for position-mapped tree schemes (merge/break
        support); the default refuses.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support group remapping"
        )

    # Implementations provide these as attributes or properties:
    #   num_blocks: int        -- logical address space size
    #   stash_occupancy: int   -- blocks currently held on-chip


# --------------------------------------------------------------------- registry
def _make_path(levels: int, z: int, num_blocks: int, rng, observer=None):
    from repro.config import ORAMConfig
    from repro.oram.path_oram import PathORAM

    capacity = ((1 << (levels + 1)) - 1) * z
    config = ORAMConfig(
        levels=levels,
        bucket_size=z,
        stash_blocks=max(40, 8 * levels),
        utilization=min(1.0, (num_blocks + 0.5) / capacity),
    )
    assert config.num_blocks == num_blocks
    return PathORAM(config, rng, observer=observer)


def _make_ring(levels: int, z: int, num_blocks: int, rng, observer=None):
    from repro.oram.ring_oram import RingORAM

    return RingORAM(levels, num_blocks, z=z, rng=rng, observer=observer)


def _make_tree(levels: int, z: int, num_blocks: int, rng, observer=None):
    from repro.oram.tree_oram import ShiTreeORAM

    return ShiTreeORAM(levels, num_blocks, bucket_size=z, rng=rng, observer=observer)


#: name -> (bucket size Z at a depth, factory(levels, z, num_blocks, rng,
#: observer)) for every scheme the controller can build (the CLI ``parity``
#: command and the parity suite).
SCHEME_FACTORIES: Dict[str, Tuple[Callable[[int], int], Callable[..., "ORAMScheme"]]] = {
    "path": (lambda levels: 4, _make_path),
    "ring": (lambda levels: 8, _make_ring),
    "tree": (lambda levels: max(4, levels + 1), _make_tree),
}


def build_scheme(
    name: str, levels: int = 6, num_blocks: int = 96, seed: int = 7, observer=None
) -> "ORAMScheme":
    """Build any registered scheme by name at a comparable small geometry.

    ``ValueError`` (one line) for an unknown name or a tree that cannot
    hold ``num_blocks`` at the scheme's Z.
    """
    from repro.utils.rng import DeterministicRng

    try:
        bucket_size, factory = SCHEME_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEME_FACTORIES))
        raise ValueError(f"unknown ORAM scheme '{name}' (known: {known})") from None
    if levels < 1:
        raise ValueError(f"an ORAM tree needs at least 1 level, not {levels}")
    z = bucket_size(levels)
    capacity = ((1 << (levels + 1)) - 1) * z
    if not 1 <= num_blocks <= capacity:
        raise ValueError(
            f"{num_blocks} blocks do not fit the '{name}' scheme: {levels} levels "
            f"at Z={z} hold 1..{capacity}"
        )
    return factory(levels, z, num_blocks, DeterministicRng(seed), observer)
