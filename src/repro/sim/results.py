"""Simulation results and the derived metrics the paper plots."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict


@dataclass
class SimResult:
    """Everything one simulation run produces.

    The paper's figures derive from three quantities: completion time
    (speedup is relative time saved), total memory accesses (the energy
    proxy), and prefetch hit/miss counts (Figure 9).
    """

    workload: str
    scheme: str
    cycles: int
    trace_entries: int
    # Cache behaviour
    l1_hits: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    # Backend behaviour
    demand_requests: int = 0
    prefetch_requests: int = 0
    write_accesses: int = 0
    memory_accesses: int = 0
    dummy_accesses: int = 0
    posmap_accesses: int = 0
    busy_cycles: int = 0
    # ORAM detail
    stash_max_occupancy: int = 0
    posmap_cache_hit_rate: float = 0.0
    # Super block scheme
    merges: int = 0
    breaks: int = 0
    prefetched_blocks: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------ derived
    @property
    def total_memory_accesses(self) -> int:
        """Real + dummy accesses: proportional to memory-subsystem energy."""
        return self.memory_accesses + self.dummy_accesses

    @property
    def prefetch_miss_rate(self) -> float:
        """The Figure 9 metric: unused prefetches over resolved prefetches."""
        resolved = self.prefetch_hits + self.prefetch_misses
        return self.prefetch_misses / resolved if resolved else 0.0

    @property
    def background_eviction_rate(self) -> float:
        total = self.demand_requests + self.dummy_accesses
        return self.dummy_accesses / total if total else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """The paper's speedup: fraction of time saved relative to baseline.

        A value of 0.20 reads "20% performance gain"; negative values mean
        a slowdown (the figures' y-axes use exactly this scale).
        """
        if self.cycles == 0:
            raise ValueError("degenerate run with zero cycles")
        return baseline.cycles / self.cycles - 1.0

    def normalized_memory_accesses(self, baseline: "SimResult") -> float:
        """Figure 8's red markers: energy relative to the baseline ORAM."""
        if baseline.total_memory_accesses == 0:
            raise ValueError("baseline performed no memory accesses")
        return self.total_memory_accesses / baseline.total_memory_accesses

    def normalized_completion_time(self, baseline: "SimResult") -> float:
        """Figures 11-14's metric: completion time relative to a baseline."""
        if baseline.cycles == 0:
            raise ValueError("degenerate baseline with zero cycles")
        return self.cycles / baseline.cycles

    @staticmethod
    def delta(final: "SimResult", start: "SimResult") -> "SimResult":
        """Measurement-window result: ``final`` minus a warmup snapshot.

        Additive counters -- every ``int`` field but the stash watermark --
        are differenced; watermark/rate fields keep the final values.  Used
        to discard cache/ORAM warmup so short traces measure steady-state
        behaviour like the paper's long runs.
        """
        differences = {
            f.name: getattr(final, f.name) - getattr(start, f.name)
            for f in fields(SimResult)
            if f.type in (int, "int") and f.name != "stash_max_occupancy"
        }
        return replace(final, extra=dict(final.extra), **differences)

    def summary(self) -> str:
        """One-line human-readable digest."""
        text = (
            f"{self.workload}/{self.scheme}: {self.cycles} cycles, "
            f"{self.llc_misses} LLC misses, "
            f"{self.total_memory_accesses} memory accesses "
            f"({self.dummy_accesses} dummy), "
            f"{self.merges} merges, {self.breaks} breaks"
        )
        soft = self.extra.get("stash_soft_overflows", 0)
        if soft:
            text += f", {int(soft)} stash soft overflows"
        return text
