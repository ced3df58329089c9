"""The shared trace-generation engine.

:class:`WorkloadProfile` captures what the paper's evaluation actually
exercises in a benchmark:

* **memory intensity** -- the mean compute gap between memory references
  (small gap + footprint beyond the LLC = memory bound, the red-background
  benchmarks of Figure 8);
* **spatial locality** -- the fraction of references that belong to
  sequential runs, and the run length (what super blocks exploit);
* **footprint** -- how much of the access stream misses the 512 KB LLC;
* **write fraction** and **skew** (Zipfian reuse for the random part).

:class:`MixtureWorkload` renders a profile into a concrete trace: a cyclic
scan pointer produces the sequential runs (so merged super blocks are
revisited on later passes, as in real array code), and the random part
draws uniform or Zipfian addresses over the footprint.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Optional

from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class WorkloadProfile:
    """Calibrated stand-in for one benchmark (see module docstring)."""

    name: str
    suite: str
    footprint_blocks: int
    gap_mean: float
    seq_fraction: float
    run_len_mean: float = 8.0
    write_fraction: float = 0.25
    zipf_theta: float = 0.0
    #: default trace length in memory references
    accesses: int = 60_000
    #: the paper's Figure 8 classification (ORAM/DRAM overhead >= 2x)
    memory_intensive: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.seq_fraction <= 1.0:
            raise ValueError("seq_fraction must be within [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        if self.footprint_blocks < 2:
            raise ValueError("footprint must be at least 2 blocks")

    def scaled(self, accesses: int) -> "WorkloadProfile":
        """Copy with a different trace length (fast-mode benchmarking)."""
        return replace(self, accesses=accesses)


class MixtureWorkload:
    """Sequential-scan / random-access mixture generator for a profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 42):
        self.profile = profile
        # A stable digest of the name (``hash(str)`` is salted per process),
        # so a named trace is the same in every interpreter.
        self._rng = DeterministicRng(seed).fork(
            zlib.crc32(profile.name.encode()) & 0xFFFF
        )

    def generate(self, accesses: Optional[int] = None) -> Trace:
        """Render ``accesses`` memory references (profile default if None)."""
        profile = self.profile
        rng = self._rng
        n = accesses if accesses is not None else profile.accesses
        trace = Trace(name=profile.name, footprint_blocks=profile.footprint_blocks)
        gaps, addrs, writes = trace.gaps, trace.addrs, trace.writes
        footprint = profile.footprint_blocks
        scan_pointer = 0
        run_remaining = 0
        for _ in range(n):
            gap = rng.expovariate_int(profile.gap_mean)
            if run_remaining > 0:
                addr = scan_pointer
                scan_pointer = (scan_pointer + 1) % footprint
                run_remaining -= 1
            elif rng.random() < profile.seq_fraction:
                # Start (or resume) a sequential run at the scan pointer.
                run_remaining = max(0, rng.geometric(profile.run_len_mean) - 1)
                addr = scan_pointer
                scan_pointer = (scan_pointer + 1) % footprint
            else:
                if profile.zipf_theta > 0.0:
                    addr = rng.zipf(footprint, profile.zipf_theta)
                else:
                    addr = rng.randint(0, footprint - 1)
            gaps.append(gap)
            addrs.append(addr)
            writes.append(1 if rng.random() < profile.write_fraction else 0)
        return trace


def trace_for(profile: WorkloadProfile, accesses: Optional[int] = None, seed: int = 42) -> Trace:
    """Convenience wrapper: render one profile into a trace."""
    return MixtureWorkload(profile, seed=seed).generate(accesses)
