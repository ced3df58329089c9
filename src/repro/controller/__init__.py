"""The ORAM controller layer: the scheme protocol, the access function, banks.

* :mod:`repro.controller.scheme` -- the :class:`ORAMScheme` protocol
  (begin/finish access, background eviction, stash drain, invariant
  check) that Path ORAM, Ring ORAM and the Shi et al. tree ORAM all
  implement, plus a registry for building any of them by name.  It
  serves ``repro parity``, the cross-scheme parity suite and ``fsck``;
* :mod:`repro.controller.mixins` -- the stash/eviction logic the scheme
  zoo shares, the tree schemes' one invariant audit, and
  ``merge_pairs``;
* :mod:`repro.controller.pipeline` -- :class:`AccessPipeline`, the one
  function every ``ORAMBackend`` request runs (PosMap walk -> path read ->
  remap -> write-back), with per-phase cycle and fault accounting;
* :mod:`repro.controller.sharded` -- the channel-interleaved
  :class:`ShardedORAMBank` that fans requests out over N independent
  ``ORAMBackend`` controllers behind the single :class:`MemoryBackend`
  interface (imported directly, not re-exported here, to keep the package
  import acyclic with :mod:`repro.memory`).
"""

from repro.controller.mixins import (
    BoundedDrainMixin,
    GreedyWritebackMixin,
    SharedLeafMixin,
)
from repro.controller.pipeline import AccessPipeline
from repro.controller.scheme import ORAMScheme, SCHEME_FACTORIES, build_scheme

__all__ = [
    "AccessPipeline",
    "BoundedDrainMixin",
    "GreedyWritebackMixin",
    "ORAMScheme",
    "SCHEME_FACTORIES",
    "SharedLeafMixin",
    "build_scheme",
]
