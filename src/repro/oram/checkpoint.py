"""Checkpoint / restore for the functional Path ORAM and the KV store.

A deployable oblivious store must survive restarts: the *untrusted* tree
lives in external storage anyway, and the trusted state (position map,
stash, counters bits) would persist in sealed NVRAM.  This module
serializes both halves of the simulator's state to a portable JSON
document and restores a behaviourally identical ORAM.

Serialized state: geometry, position map (leaves + merge/break/prefetch
bits), every bucket's blocks (address, leaf, optional payload), the stash,
and access counters.  RNG state is intentionally *not* captured -- a
restored ORAM continues with fresh randomness, exactly like a rebooted
device, and stays oblivious.  Pinned treetop buckets travel in the bucket
list like any other; an older document's ``treetop`` section (an off-chip
image and dirty set of a second copy the tree no longer keeps) is ignored.

Robustness guarantees (the recovery subsystem depends on both):

* :func:`save_oram` is crash-safe: the document is written to a temporary
  file in the target directory and atomically renamed over the
  destination, so a failure mid-save can never clobber the last good
  checkpoint.
* :func:`load_oram` validates everything it reads and reports problems as
  :class:`CheckpointError` with a descriptive message -- a malformed or
  mismatched document never surfaces bare ``KeyError``/``TypeError``
  internals.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import os
import tempfile
from typing import Callable, Dict, Iterable, Optional

from repro.config import ORAMConfig
from repro.oram.path_oram import PathORAM
from repro.utils.bitops import LEAF_BITS, LEAF_MASK
from repro.utils.rng import DeterministicRng

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint document is malformed or inconsistent with its config."""


def checked_counters(names: Iterable[str], saved, where: str) -> Dict[str, int]:
    """``{name: saved[name]}`` for the integer counters *names* of a
    document section -- unknown keys of the section are ignored.

    Raises:
        CheckpointError: a named counter is missing or not an integer.
    """
    try:
        values = {name: saved[name] for name in names}
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{where}: missing counter {exc}") from exc
    for name, value in values.items():
        if type(value) is not int:
            raise CheckpointError(
                f"{where}: counter {name!r} is not an integer: {value!r}"
            )
    return values


def load_counters(owner, names: Iterable[str], saved, where: str) -> None:
    """Write the counters *names* of a document section onto *owner*.

    The inverse of reading ``{name: getattr(owner, name) for name in
    names}``, and the only way a document reaches a component's counters:
    the component's declaration chooses the attributes, never the
    document's keys, and every value is checked before the first is
    written.
    """
    for name, value in checked_counters(names, saved, where).items():
        setattr(owner, name, value)


def _encode_block(word: int, payloads: Dict[int, bytes]) -> dict:
    """The ``{"a", "l"[, "d"]}`` record of one block word and its payload."""
    addr = word >> LEAF_BITS
    out = {"a": addr, "l": word & LEAF_MASK}
    data = payloads.get(addr)
    if data is not None:
        out["d"] = base64.b64encode(data).decode("ascii")
    return out


def _decode_block(raw: dict, where: str, payloads: Dict[int, bytes]) -> int:
    """The word of one block record; its payload, if any, goes to ``payloads``."""
    try:
        addr, leaf = raw["a"], raw["l"]
        if not 0 <= leaf <= LEAF_MASK:
            raise ValueError(f"leaf {leaf} does not fit the block word")
        if "d" in raw:
            payloads[addr] = base64.b64decode(raw["d"])
        return addr << LEAF_BITS | leaf
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise CheckpointError(f"malformed block record in {where}: {exc!r}") from exc


def _oram_state_dict(oram: PathORAM) -> dict:
    """The checkpoint document of one Path ORAM, as a plain dict."""
    if oram.pending_leaf is not None:
        raise RuntimeError("cannot checkpoint mid-access")
    config = oram.config
    posmap = oram.position_map
    n = posmap.num_blocks
    return {
        "version": FORMAT_VERSION,
        # every ORAMConfig field, so a new one cannot be dropped on the way
        "config": dataclasses.asdict(config),
        "leaves": [posmap.leaf(a) for a in range(n)],
        "merge_bits": [posmap.merge_bit(a) for a in range(n)],
        "break_bits": [posmap.break_bit(a) for a in range(n)],
        "prefetch_bits": [posmap.prefetch_bit(a) for a in range(n)],
        "buckets": [
            [_encode_block(word, oram.tree.payloads) for word in oram.tree.words(i)]
            for i in range(oram.tree.num_buckets)
        ],
        "stash": [
            _encode_block(word, oram.tree.payloads) for word in oram.stash.blocks.values()
        ],
        "counters": {name: getattr(oram, name) for name in oram.COUNTERS},
    }


def dump_oram(oram: PathORAM) -> str:
    """Serialize a Path ORAM to a JSON string."""
    return json.dumps(_oram_state_dict(oram))


_REQUIRED_KEYS = (
    "config",
    "leaves",
    "merge_bits",
    "break_bits",
    "prefetch_bits",
    "buckets",
    "stash",
    "counters",
)


def load_oram(
    payload: str,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    oram_factory: Optional[Callable[..., PathORAM]] = None,
) -> PathORAM:
    """Restore a Path ORAM from :func:`dump_oram` output.

    Args:
        payload: the JSON document.
        rng: fresh randomness for the restored instance (a new seed is
            fine -- and preferable, see the module docstring).
        observer: optional adversary observer to attach.
        oram_factory: optional constructor with the :class:`PathORAM`
            signature ``factory(config, rng, observer=..., populate=...)``;
            lets callers restore into a subclass (the Merkle-verified ORAM
            of the recovery path).  Derived structures are rebuilt via
            :meth:`PathORAM.rebuild_auxiliary` after the state is
            installed.

    Raises:
        CheckpointError: the document is malformed, from an unsupported
            version, or inconsistent with its own geometry.
    """
    state = _parse_oram_state(payload)
    config = _checkpoint_config(state)
    factory = oram_factory or PathORAM
    oram = factory(config, rng or DeterministicRng(0xC8C8), observer=observer, populate=False)
    _install_oram_state(oram, state)
    return oram


def _parse_oram_state(payload: str) -> dict:
    """Parse + shape-validate a checkpoint document (JSON string or dict)."""
    if isinstance(payload, dict):
        state = payload
    else:
        try:
            state = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"malformed checkpoint document: {exc}") from exc
    if not isinstance(state, dict):
        raise CheckpointError(
            f"malformed checkpoint document: expected an object, "
            f"got {type(state).__name__}"
        )
    if state.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in state]
    if missing:
        raise CheckpointError(f"checkpoint document missing keys: {missing}")
    return state


def _checkpoint_config(state: dict) -> ORAMConfig:
    try:
        return ORAMConfig(**state["config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint geometry: {exc}") from exc


def _install_oram_state(oram: PathORAM, state: dict) -> None:
    """Overwrite an ORAM instance's state with a validated checkpoint.

    Works both on a freshly constructed, unpopulated instance (the
    :func:`load_oram` path) and in place on a live, populated one (the
    worker-recovery path): the position map, every bucket, the stash, and
    the counters are replaced wholesale, and derived structures are rebuilt
    via :meth:`PathORAM.rebuild_auxiliary`.  The position map's backing
    arrays are written in place -- components holding direct references to
    them (e.g. the super block scheme's prefetch-bit handle) stay valid.
    """
    oram._populated = True  # state arrives fully formed
    posmap = oram.position_map
    n = posmap.num_blocks
    for name in ("leaves", "merge_bits", "break_bits", "prefetch_bits"):
        if len(state[name]) != n:
            raise CheckpointError(
                f"checkpoint holds {len(state[name])} {name}, "
                f"config implies {n} blocks"
            )
    try:
        for addr in range(n):
            posmap.set_leaf(addr, state["leaves"][addr])
            posmap.set_merge_bit(addr, state["merge_bits"][addr])
            posmap.set_break_bit(addr, state["break_bits"][addr])
            posmap.set_prefetch_bit(addr, state["prefetch_bits"][addr])
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"invalid position map entry: {exc}") from exc
    if len(state["buckets"]) != oram.tree.num_buckets:
        raise CheckpointError(
            f"checkpoint holds {len(state['buckets'])} buckets, "
            f"tree geometry implies {oram.tree.num_buckets}"
        )
    payloads = oram.tree.payloads
    payloads.clear()
    for index, raw_bucket in enumerate(state["buckets"]):
        blocks = [_decode_block(raw, f"bucket {index}", payloads) for raw in raw_bucket]
        try:
            oram.tree.write_bucket_at(index, blocks)
        except ValueError as exc:
            raise CheckpointError(f"bucket {index}: {exc}") from exc
    # The configured capacity is soft (a drain that gives up leaves more,
    # and counts a stash_soft_overflow), so the bound is what can exist;
    # check_invariants below refuses duplicate or misplaced blocks.
    if len(state["stash"]) > n:
        raise CheckpointError(
            f"checkpoint stash holds {len(state['stash'])} blocks, "
            f"the address space has {n}"
        )
    oram.stash.blocks.clear()
    for raw in state["stash"]:
        try:
            oram.stash.add(_decode_block(raw, "stash", payloads))
        except ValueError as exc:  # a duplicate address
            raise CheckpointError(f"stash: {exc}") from exc
    load_counters(oram, oram.COUNTERS, state["counters"], "checkpoint counters")
    oram.rebuild_auxiliary()
    try:
        oram.check_invariants()
    except AssertionError as exc:
        raise CheckpointError(f"checkpoint violates ORAM invariants: {exc}") from exc


def _atomic_write(path: str, payload: str) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp + rename.

    ``os.replace`` is atomic on POSIX and Windows, so a crash (or raised
    exception) at any point leaves either the old file or the new file --
    never a torn mixture.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def save_oram(oram: PathORAM, path: str) -> None:
    """Write a checkpoint file crash-safely (temp file + atomic rename)."""
    _atomic_write(path, dump_oram(oram))


def restore_oram(
    path: str,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    oram_factory: Optional[Callable[..., PathORAM]] = None,
) -> PathORAM:
    """Read a checkpoint file."""
    with open(path) as handle:
        return load_oram(
            handle.read(), rng=rng, observer=observer, oram_factory=oram_factory
        )


# --------------------------------------------------------------------------
# Backend-level checkpoints (the parallel shard runtime's recovery unit)
# --------------------------------------------------------------------------
#
# A :class:`~repro.memory.oram_backend.ORAMBackend` is more than its ORAM:
# the merged SimResult also draws on the backend's counters, the scheme's
# statistics, the PosMap hierarchy's cache accounting, the pipeline's
# per-phase attribution, the interconnect's scheduler state and
# ``busy_until``.  What that state *is* is decided in one place: the
# document's ``"backend"`` section is the controller's own
# :meth:`~repro.memory.oram_backend.ORAMBackend.counters` walk -- the dict
# the result fold and the metrics registry read -- and
# :meth:`~repro.memory.oram_backend.ORAMBackend.load_counters` restores
# from it, so a respawned worker resumes accounting exactly where the dead
# one stopped and a counter cannot be folded but not persisted.  Beside it,
# ``"posmap_cache"`` holds the on-chip PosMap block cache's keys in LRU
# order, so a restored shard's PosMap walks are as long as the dead one's
# would have been (a document without it restores a cold cache).  What is
# deliberately *not* captured (and therefore resets on recovery, exactly
# like a rebooted device): RNG state, the adaptive threshold policy's
# training state, and the prefetch tracker's block-side hit bits -- none of
# them affect correctness, only warm-up.

BACKEND_FORMAT_VERSION = 1


def dump_backend_state(backend, runtime_state: Optional[dict] = None) -> str:
    """Serialize an ORAM backend (ORAM + every counter) to a JSON string.

    Args:
        backend: the :class:`~repro.memory.oram_backend.ORAMBackend`.
        runtime_state: opaque JSON-serializable extras stored alongside
            (the shard worker keeps its last-applied sequence number and a
            replay window of recent batch replies here).
    """
    state = {
        "version": BACKEND_FORMAT_VERSION,
        "kind": "oram-backend",
        "oram": _oram_state_dict(backend.oram),
        "backend": backend.counters(),
        "posmap_cache": backend.posmap_hierarchy.cached_keys(),
        "runtime": runtime_state or {},
    }
    return json.dumps(state)


def restore_backend_state(backend, payload: str) -> dict:
    """Install a :func:`dump_backend_state` document into a live backend.

    The backend must have been built from the same configuration that
    produced the checkpoint (same geometry, same scheme kind); the caller
    -- the shard worker respawn path -- rebuilds it from the shard spec
    first.  Returns the opaque ``runtime`` dict stored at capture time.

    Raises:
        CheckpointError: the document is malformed or inconsistent.
    """
    try:
        state = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed backend checkpoint: {exc}") from exc
    if not isinstance(state, dict) or state.get("kind") != "oram-backend":
        raise CheckpointError("not a backend checkpoint document")
    if state.get("version") != BACKEND_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported backend checkpoint version {state.get('version')!r} "
            f"(this build reads version {BACKEND_FORMAT_VERSION})"
        )
    for key in ("oram", "backend"):
        if key not in state:
            raise CheckpointError(f"backend checkpoint missing key: {key!r}")
    _install_oram_state(backend.oram, _parse_oram_state(state["oram"]))
    try:
        backend.load_counters(state["backend"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed backend checkpoint: {exc!r}") from exc
    hierarchy = backend.posmap_hierarchy
    keys = state.get("posmap_cache", [])  # older documents: a cold cache
    if not (
        isinstance(keys, list)
        and all(type(key) is int for key in keys)
        and len(keys) <= max(0, hierarchy.cache_entries)
    ):
        raise CheckpointError(
            f"posmap_cache must list at most {hierarchy.cache_entries} integer keys"
        )
    hierarchy.load_cache(keys)
    runtime = state.get("runtime", {})
    if not isinstance(runtime, dict):
        raise CheckpointError("backend checkpoint runtime section must be a dict")
    return runtime


def save_backend(backend, path: str, runtime_state: Optional[dict] = None) -> None:
    """Write a backend checkpoint crash-safely (temp file + atomic rename)."""
    _atomic_write(path, dump_backend_state(backend, runtime_state))


def restore_backend(backend, path: str) -> dict:
    """Read a backend checkpoint file into a live backend."""
    with open(path) as handle:
        return restore_backend_state(backend, handle.read())
