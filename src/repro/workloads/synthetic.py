"""The synthetic benchmarks of paper section 5.3.

"The synthetic benchmark accesses an array with two patterns, sequential or
random.  For the sequential pattern, the part of the array is scanned
sequentially, leading to good spatial locality.  For the random pattern,
the data is randomly accessed with no spatial locality."

* :func:`locality_mix_trace` -- the Figure 6a sweep: X% of the data is
  scanned sequentially, the rest is accessed randomly.
* :func:`phase_change_trace` -- Figure 6b: which half of the data exhibits
  locality alternates between phases.
* :func:`sequential_trace` / :func:`uniform_random_trace` -- the two pure
  endpoints (Figure 7 uses the 100%-locality case).
"""

from __future__ import annotations

from math import log

from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng

DEFAULT_FOOTPRINT = 16_384  # blocks; 2 MB at 128 B -- well past the 512 KB LLC
DEFAULT_ACCESSES = 50_000
DEFAULT_GAP = 4.0


def locality_mix_trace(
    locality: float,
    footprint_blocks: int = DEFAULT_FOOTPRINT,
    accesses: int = DEFAULT_ACCESSES,
    gap_mean: float = DEFAULT_GAP,
    seed: int = 11,
) -> Trace:
    """X% of the data scanned sequentially, the rest random (Figure 6a).

    The first ``locality`` fraction of the address space is the sequential
    region, cyclically scanned; the remainder is accessed uniformly at
    random.  The access stream draws from the two regions in proportion to
    their sizes, so "X% locality" means X% of both data and accesses.
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be within [0, 1]")
    rng = DeterministicRng(seed)
    # "X% locality" must mean X% of both data and accesses even on tiny
    # footprints: int() truncation used to round small sequential regions
    # down to zero blocks, silently degenerating e.g. 5%-locality-over-10-
    # blocks to pure random.  Any nonzero locality keeps >= 1 sequential
    # block so the access-proportion draw below stays meaningful.
    seq_blocks = int(footprint_blocks * locality)
    if locality > 0.0 and seq_blocks == 0:
        seq_blocks = 1
    trace = Trace(
        name=f"locality_{int(round(locality * 100))}",
        footprint_blocks=footprint_blocks,
    )
    # The random region [low, low + width); the Trace refuses an empty
    # footprint, so width >= 1.
    if seq_blocks >= footprint_blocks:
        low, width = 0, footprint_blocks
    else:
        low, width = seq_blocks, footprint_blocks - seq_blocks
    # The draws are those of ``rng.expovariate_int`` / ``rng.random`` /
    # ``rng.randint`` written out over the bound generator: ``Random.
    # expovariate(lambd)`` is ``-log(1.0 - random()) / lambd`` and
    # ``Random.randint(low, high)`` is ``low + _randbelow(high - low + 1)``
    # (CPython 3.10-3.12), so the trace is bit-identical to the wrapper
    # calls' without their frames.
    random = rng.random_unit
    randbelow = rng.randbelow
    lambd = 1.0 / gap_mean if gap_mean > 0.0 else 0.0
    gaps_append = trace.gaps.append
    addrs_append = trace.addrs.append
    pointer = 0
    for _ in range(accesses):
        gaps_append(int(-log(1.0 - random()) / lambd) if lambd else 0)
        if seq_blocks > 0 and random() < locality:
            addrs_append(pointer)
            pointer = (pointer + 1) % seq_blocks
        else:
            addrs_append(low + randbelow(width))
    trace.writes.extend(bytes(accesses))  # every access is a read
    assert len(trace) == accesses
    return trace


def phase_change_trace(
    num_phases: int = 8,
    footprint_blocks: int = DEFAULT_FOOTPRINT,
    accesses: int = DEFAULT_ACCESSES,
    gap_mean: float = DEFAULT_GAP,
    seed: int = 12,
) -> Trace:
    """Alternating-locality phases (Figure 6b).

    "In the first phase, half of the data are accessed sequentially and the
    other half randomly.  In the second phase, the first (second) half is
    randomly (sequentially) accessed.  The pattern keeps switching."
    """
    if num_phases < 1:
        raise ValueError("need at least one phase")
    rng = DeterministicRng(seed)
    half = footprint_blocks // 2
    # accesses // num_phases alone drops the remainder, silently returning
    # a shorter trace whenever accesses % num_phases != 0; spread the
    # remainder one access at a time over the leading phases instead.
    per_phase, leftover = divmod(accesses, num_phases)
    trace = Trace(name="phase_change", footprint_blocks=footprint_blocks)
    pointer = 0
    for phase in range(num_phases):
        seq_base = 0 if phase % 2 == 0 else half
        rand_base = half if phase % 2 == 0 else 0
        phase_accesses = per_phase + (1 if phase < leftover else 0)
        for _ in range(phase_accesses):
            gap = rng.expovariate_int(gap_mean)
            if rng.random() < 0.5:
                addr = seq_base + pointer
                pointer = (pointer + 1) % half
            else:
                addr = rand_base + rng.randint(0, half - 1)
            trace.gaps.append(gap)
            trace.addrs.append(addr)
    trace.writes.extend(bytes(accesses))  # every access is a read
    assert len(trace) == accesses
    return trace


def sequential_trace(
    footprint_blocks: int = DEFAULT_FOOTPRINT,
    accesses: int = DEFAULT_ACCESSES,
    gap_mean: float = DEFAULT_GAP,
    seed: int = 13,
) -> Trace:
    """Pure cyclic sequential scan: 100% spatial locality (Figure 7)."""
    rng = DeterministicRng(seed)
    trace = Trace(name="sequential", footprint_blocks=footprint_blocks)
    for i in range(accesses):
        trace.gaps.append(rng.expovariate_int(gap_mean))
        trace.addrs.append(i % footprint_blocks)
    trace.writes.extend(bytes(accesses))  # every access is a read
    assert len(trace) == accesses
    return trace


def uniform_random_trace(
    footprint_blocks: int = DEFAULT_FOOTPRINT,
    accesses: int = DEFAULT_ACCESSES,
    gap_mean: float = DEFAULT_GAP,
    seed: int = 14,
) -> Trace:
    """Pure uniform random access: zero spatial locality."""
    rng = DeterministicRng(seed)
    trace = Trace(name="random", footprint_blocks=footprint_blocks)
    for _ in range(accesses):
        trace.gaps.append(rng.expovariate_int(gap_mean))
        trace.addrs.append(rng.randint(0, footprint_blocks - 1))
    trace.writes.extend(bytes(accesses))  # every access is a read
    assert len(trace) == accesses
    return trace
