"""The ``ORAMScheme`` protocol: what the controller requires of a scheme.

Every oblivious-memory construction in this repository -- Path ORAM, Ring
ORAM, the Shi et al. binary-tree ORAM, and the Goldreich-Ostrovsky
square-root ORAM -- implements this protocol, so ``repro parity``, the
cross-scheme parity suite and ``fsck`` can drive any of them without
knowing which one they hold.  (:func:`build_scheme` builds such an ORAM
*construction*; the super block *policy* a controller runs on top of one
comes from :func:`repro.controller.sharded.make_policy`.)

The protocol splits one oblivious access into the two halves the paper's
pipeline needs (everything between them runs with the accessed blocks
on-chip, which is where merge/break remapping happens):

* :meth:`ORAMScheme.begin_access` -- fetch a (super) block: position
  lookup, path/slot read, remap of the members;
* :meth:`ORAMScheme.finish_access` -- commit: path write-back or
  scheme-specific maintenance (eviction counters, reshuffles).

plus the background machinery the controller schedules around demand
accesses: :meth:`dummy_access` (one background eviction / dummy probe),
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
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

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
    owns all of its server-side state; the controller only ever sees
    block handles returned by :meth:`begin_access`.
    """

    @abstractmethod
    def begin_access(
        self, addrs: Sequence[int], new_leaf: Optional[int] = None
    ) -> Mapping[int, Any]:
        """Fetch the (super) block ``addrs`` and remap its members.

        Between this call and :meth:`finish_access` every member is
        on-chip, so callers may inspect or update the returned handles.
        ``new_leaf`` overrides the random remap target (tests only);
        schemes without positions ignore it.
        """

    @abstractmethod
    def finish_access(self) -> None:
        """Commit the in-flight access (write-back / maintenance)."""

    def access(
        self, addrs: Sequence[int], new_leaf: Optional[int] = None
    ) -> Mapping[int, Any]:
        """One complete access: :meth:`begin_access` + :meth:`finish_access`."""
        fetched = self.begin_access(addrs, new_leaf)
        self.finish_access()
        return fetched

    @abstractmethod
    def dummy_access(self, kind: str = "dummy") -> None:
        """One background eviction (tree schemes) or dummy probe (sqrt)."""

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
def _make_path(levels: int, num_blocks: int, seed: int, observer=None):
    from repro.config import ORAMConfig
    from repro.oram.path_oram import PathORAM
    from repro.utils.rng import DeterministicRng

    capacity = ((1 << (levels + 1)) - 1) * 4
    if num_blocks > capacity:
        raise ValueError(f"{num_blocks} blocks exceed the Z=4 tree capacity {capacity}")
    config = ORAMConfig(
        levels=levels,
        bucket_size=4,
        stash_blocks=max(40, 8 * levels),
        utilization=(num_blocks + 0.5) / capacity,
    )
    assert config.num_blocks == num_blocks
    return PathORAM(config, DeterministicRng(seed), observer=observer)


def _make_ring(levels: int, num_blocks: int, seed: int, observer=None):
    from repro.oram.ring_oram import RingORAM
    from repro.utils.rng import DeterministicRng

    return RingORAM(
        levels=levels,
        num_blocks=num_blocks,
        rng=DeterministicRng(seed),
        observer=observer,
    )


def _make_tree(levels: int, num_blocks: int, seed: int, observer=None):
    from repro.oram.tree_oram import ShiTreeORAM
    from repro.utils.rng import DeterministicRng

    return ShiTreeORAM(
        levels=levels,
        num_blocks=num_blocks,
        rng=DeterministicRng(seed),
        observer=observer,
    )


def _make_sqrt(levels: int, num_blocks: int, seed: int, observer=None):
    from repro.oram.square_root import SquareRootORAM
    from repro.utils.rng import DeterministicRng

    return SquareRootORAM(num_blocks, rng=DeterministicRng(seed), observer=observer)


#: name -> factory(levels, num_blocks, seed, observer) for every scheme the
#: controller can build (the CLI ``parity`` command and the parity suite).
SCHEME_FACTORIES: Dict[str, Callable[..., "ORAMScheme"]] = {
    "path": _make_path,
    "ring": _make_ring,
    "tree": _make_tree,
    "sqrt": _make_sqrt,
}


def build_scheme(
    name: str, levels: int = 6, num_blocks: int = 96, seed: int = 7, observer=None
) -> "ORAMScheme":
    """Build any registered scheme by name at a comparable small geometry."""
    try:
        factory = SCHEME_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEME_FACTORIES))
        raise ValueError(f"unknown ORAM scheme '{name}' (known: {known})") from None
    return factory(levels, num_blocks, seed, observer)
