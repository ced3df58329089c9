"""Stash occupancy studies (the Ren et al. design-space lens).

The stash is Path ORAM's pressure gauge: background evictions fire when it
overflows, and the super block schemes' costs show up here first (two
same-leaf blocks re-enter per access).  These helpers sample stash
occupancy across a run and summarize the distribution, powering the
``examples`` and quick what-if analyses:

    profile = stash_occupancy_profile(trace, "stat")
    print(profile.summary())
    print(sparkline(profile.samples[::50]))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.experiments import experiment_config
from repro.config import SystemConfig
from repro.sim.system import SecureSystem
from repro.sim.trace import Trace


@dataclass
class StashProfile:
    """Occupancy samples (one per demand access) and derived statistics."""

    scheme: str
    capacity: int
    samples: List[int] = field(default_factory=list)
    background_evictions: int = 0
    soft_overflows: int = 0

    @property
    def peak(self) -> int:
        return max(self.samples, default=0)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> int:
        """Empirical quantile of the occupancy distribution."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.samples:
            return 0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def occupancy_histogram(self, buckets: int = 10) -> List[int]:
        """Counts per equal-width occupancy bucket over [0, capacity]."""
        if buckets < 1:
            raise ValueError("need at least one bucket")
        width = max(1, (self.capacity + buckets - 1) // buckets)
        counts = [0] * buckets
        for sample in self.samples:
            counts[min(buckets - 1, sample // width)] += 1
        return counts

    def summary(self) -> str:
        return (
            f"{self.scheme}: mean {self.mean:.1f} / p90 {self.quantile(0.9)} / "
            f"peak {self.peak} of {self.capacity} stash slots, "
            f"{self.background_evictions} background evictions"
            + (f", {self.soft_overflows} soft overflows" if self.soft_overflows else "")
        )


def stash_occupancy_profile(
    trace: Trace,
    scheme: str,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.0,
) -> StashProfile:
    """Run ``trace`` under ``scheme`` and sample stash occupancy per access.

    Only ORAM-backed schemes have a stash; asking for ``dram`` raises.
    """
    config = config or experiment_config()
    system = SecureSystem.build(scheme, trace.footprint_blocks, config)
    if not system.backend.shards:
        raise ValueError(f"scheme '{scheme}' has no stash to profile")
    (backend,) = system.backend.shards  # a default build is one controller
    profile = StashProfile(scheme=scheme, capacity=backend.oram.stash.capacity)
    backend.stash_sampler = profile.samples.append
    result = system.run(trace, warmup_entries=int(len(trace) * warmup_fraction))
    profile.background_evictions = result.dummy_accesses
    profile.soft_overflows = backend.oram.stash_soft_overflows
    return profile


def compare_schemes(
    trace: Trace,
    schemes=("oram", "stat", "dyn"),
    config: Optional[SystemConfig] = None,
) -> List[StashProfile]:
    """Profiles for several schemes on one trace (same order as given)."""
    return [stash_occupancy_profile(trace, scheme, config=config) for scheme in schemes]
