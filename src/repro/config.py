"""System configuration dataclasses mirroring Table 1 of the paper.

Two layers of configuration exist:

* The *nominal* configuration describes the machine the paper models: an
  8 GB Path ORAM behind a 16 GB/s pin interface on a 1 GHz chip.  All
  latency charging is derived from these numbers
  (see :mod:`repro.memory.interconnect`), so the default Path ORAM access costs
  roughly the paper's 2364 cycles.
* The *functional* configuration describes the Python-scale tree actually
  simulated (a few thousand leaves).  Stash pressure, background eviction
  rate, and super block dynamics come from this tree.  DESIGN.md section
  1.3 documents why this split preserves the paper's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.bitops import is_power_of_two, log2_exact

#: Default clock frequency in Hz (Table 1: 1 GHz in-order core).
CLOCK_HZ = 1_000_000_000


@dataclass(frozen=True)
class ORAMConfig:
    """Path ORAM parameters (Table 1, "Default ORAM configuration").

    Attributes:
        capacity_bytes: nominal ORAM capacity (8 GB in the paper); used only
            by the latency model.
        block_bytes: basic block / cacheline size (128 B).
        bucket_size: blocks per bucket, the paper's ``Z`` (3).
        stash_blocks: stash capacity excluding the path buffer (100).
        num_hierarchies: total ORAM hierarchies for recursion, counting the
            data ORAM itself (4).
        levels: depth ``L`` of the *functional* binary tree; the tree has
            ``2**levels`` leaves and ``2**(levels+1) - 1`` buckets.
        utilization: fraction of the functional tree's block slots filled at
            initialization.  Path ORAM keeps roughly 50% utilization.
        max_super_block_size: cap on merged super block size (Table 1: 2).
        posmap_entries_per_block: position maps stored per PosMap block
            (the paper packs 32 x (25-bit leaf + merge bit + break bit)
            into a 128 B block).
        posmap_cache_entries: on-chip unified-ORAM PosMap block cache (PLB)
            capacity, in PosMap blocks.
        treetop_levels: top levels of the tree pinned in on-chip SRAM
            (the treetop cache, DESIGN.md section 13).  Every path access
            touches all of them, so pinning the top ``k`` levels leaks
            nothing and shrinks every path transfer to the bottom
            ``L - k`` levels.  ``0`` (the default) disables the cache and
            is bit-identical to the pre-treetop simulator.  Validated
            against the *nominal* tree height: the truncated public path
            cost must keep at least one off-chip level.
    """

    capacity_bytes: int = 8 * 1024**3
    block_bytes: int = 128
    bucket_size: int = 3
    stash_blocks: int = 100
    num_hierarchies: int = 4
    levels: int = 13
    utilization: float = 0.7
    max_super_block_size: int = 2
    posmap_entries_per_block: int = 32
    posmap_cache_entries: int = 128
    treetop_levels: int = 0

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("ORAM tree needs at least 1 level")
        if self.bucket_size < 1:
            raise ValueError("bucket size Z must be >= 1")
        if not is_power_of_two(self.block_bytes):
            raise ValueError("block size must be a power of two")
        if not is_power_of_two(self.max_super_block_size):
            raise ValueError("max super block size must be a power of two")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        if self.treetop_levels < 0:
            raise ValueError("treetop levels cannot be negative")
        # Validate against the nominal tree (the one timing is charged
        # for), not the functional tree: scaled_to_footprint() shrinks
        # ``levels`` for small workloads and the functional attach point
        # caps itself, but the nominal truncation must keep at least one
        # level streaming off-chip.
        if self.treetop_levels and self.treetop_levels >= self.nominal_levels:
            raise ValueError(
                f"treetop_levels={self.treetop_levels} must be smaller than "
                f"the nominal tree height ({self.nominal_levels} levels)"
            )

    @property
    def num_leaves(self) -> int:
        """Leaves of the functional tree."""
        return 1 << self.levels

    @property
    def num_buckets(self) -> int:
        """Buckets of the functional tree."""
        return (1 << (self.levels + 1)) - 1

    @property
    def tree_capacity_blocks(self) -> int:
        """Total block slots in the functional tree."""
        return self.num_buckets * self.bucket_size

    @property
    def num_blocks(self) -> int:
        """Real data blocks stored in the functional tree at init."""
        return int(self.tree_capacity_blocks * self.utilization)

    @property
    def nominal_levels(self) -> int:
        """Tree depth of the *nominal* (paper-scale) ORAM.

        The nominal tree must hold ``capacity_bytes / block_bytes`` real
        blocks at ~50% utilization with ``Z`` blocks per bucket.
        """
        blocks = self.capacity_bytes // self.block_bytes
        levels = 0
        while ((1 << (levels + 1)) - 1) * self.bucket_size // 2 < blocks:
            levels += 1
        return levels

    def scaled_to_footprint(self, footprint_blocks: int) -> "ORAMConfig":
        """Return a copy whose functional tree comfortably holds a workload.

        The tree is sized so the footprint fills about ``utilization`` of
        its slots, keeping stash/eviction dynamics realistic regardless of
        workload size.
        """
        levels = 1
        while ((1 << (levels + 1)) - 1) * self.bucket_size * self.utilization < footprint_blocks:
            levels += 1
        return replace(self, levels=levels)


@dataclass(frozen=True)
class CacheConfig:
    """A single cache level (Table 1: 32 KB 4-way L1, 512 KB 8-way LLC)."""

    capacity_bytes: int
    associativity: int
    block_bytes: int = 128
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.associativity * self.block_bytes) != 0:
            raise ValueError("capacity must be a multiple of way size")

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @property
    def index_bits(self) -> int:
        return log2_exact(self.num_sets)


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM model (Table 1) plus the pluggable interconnect knobs.

    The paper models DRAM as a flat ``latency_cycles`` access bounded by pin
    bandwidth; bank-level parallelism lets independent requests overlap.
    ``model`` selects how ORAM path accesses are timed:

    * ``"flat"`` (default, the paper's model): one scalar ``path_cycles``
      per path access -- a single access saturates the pin bandwidth.
    * ``"channel"``: every bucket is striped evenly over ``num_channels``
      *ganged* channels (DESIGN.md section 11), so each path loads every
      channel with ``1/num_channels`` of its bytes and the channels run
      in lockstep through one bank/row scheduler.  ``bandwidth_gbps`` is
      then *per-channel* pin bandwidth, so channels multiply aggregate
      bandwidth.

    ``page_policy`` applies to the channel model only: ``"open"`` leaves
    rows open so consecutive hits pay ``row_hit_latency_cycles``
    (default ``latency_cycles // 2``); ``"closed"`` precharges after
    every access, so every array access pays the full latency.
    ``subtree_levels`` is the height of the layout's subtree tiles (one
    DRAM row, at the same ``(bank, row)`` of every channel).
    """

    bandwidth_gbps: float = 16.0
    latency_cycles: int = 100
    num_banks: int = 8
    model: str = "flat"
    num_channels: int = 1
    page_policy: str = "open"
    row_hit_latency_cycles: int = 0
    subtree_levels: int = 2

    def __post_init__(self) -> None:
        if self.model not in ("flat", "channel"):
            raise ValueError("DRAM model must be 'flat' or 'channel'")
        if self.page_policy not in ("open", "closed"):
            raise ValueError("page policy must be 'open' or 'closed'")
        if self.num_channels < 1:
            raise ValueError("need at least one DRAM channel")
        if self.num_banks < 1:
            raise ValueError("need at least one DRAM bank")
        if self.subtree_levels < 1:
            raise ValueError("subtree tiles must be at least one level tall")
        if self.row_hit_latency_cycles < 0:
            raise ValueError("row hit latency cannot be negative")

    @property
    def bytes_per_cycle(self) -> float:
        """Per-channel pin bandwidth in bytes per core cycle at 1 GHz."""
        return self.bandwidth_gbps * 1e9 / CLOCK_HZ

    @property
    def row_hit_cycles(self) -> int:
        """Effective open-page row-hit latency (0 means latency/2)."""
        if self.row_hit_latency_cycles:
            return self.row_hit_latency_cycles
        return max(1, self.latency_cycles // 2)


@dataclass(frozen=True)
class PrefetchConfig:
    """Traditional stream prefetcher parameters (section 5.2 strawman)."""

    num_streams: int = 4
    depth: int = 2
    #: accesses with ascending addresses needed before a stream trains
    train_threshold: int = 2


@dataclass(frozen=True)
class TimingProtectionConfig:
    """Periodic ORAM access configuration (sections 2.5 and 5.6)."""

    interval_cycles: int = 100


@dataclass(frozen=True)
class ServeConfig:
    """Request-serving front-end policies (DESIGN.md section 12).

    The front end (:mod:`repro.serve`) sits between a multi-tenant request
    stream and a sharded ORAM bank.  These knobs bound its queues and shape
    its batches; the defaults favour fairness and bounded latency over raw
    batch efficiency.

    Attributes:
        batch_size: per-shard batch quota for HEALTHY shards; a batch is
            issued as soon as it holds this many distinct accesses.  A
            throttled (DEGRADED) shard's quota is half of it, at least 1.
        deadline_close_fraction: a batch also closes when its oldest
            member has spent this fraction of its deadline budget waiting
            (the "half-spent" rule at the default 0.5).
        queue_capacity: per-tenant ingress queue bound; arrivals beyond it
            are shed at admission.
        max_backlog: global bound on queued + batched-but-unissued
            requests; ``0`` disables the global cap.
        coalesce: dedupe concurrent requests for the same super block onto
            one pending ORAM access and fan the completion back out.
        stash_shed_fraction: shed new arrivals for a shard whose stash
            occupancy is at or above this fraction of capacity -- admission
            control firing *before* the stash overflows.  ``0`` disables.
    """

    batch_size: int = 8
    deadline_close_fraction: float = 0.5
    queue_capacity: int = 64
    max_backlog: int = 512
    coalesce: bool = True
    stash_shed_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not 0.0 < self.deadline_close_fraction <= 1.0:
            raise ValueError("deadline close fraction must be in (0, 1]")
        if self.queue_capacity < 1:
            raise ValueError("per-tenant queues need capacity >= 1")
        if self.max_backlog < 0:
            raise ValueError("max backlog cannot be negative")
        if not 0.0 <= self.stash_shed_fraction <= 1.0:
            raise ValueError("stash shed fraction must be in [0, 1]")


@dataclass(frozen=True)
class SystemConfig:
    """Complete secure-processor configuration (the whole of Table 1)."""

    oram: ORAMConfig = field(default_factory=ORAMConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(capacity_bytes=32 * 1024, associativity=4)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            capacity_bytes=512 * 1024, associativity=8, hit_latency=8
        )
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    timing_protection: TimingProtectionConfig = field(default_factory=TimingProtectionConfig)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.l1.block_bytes != self.oram.block_bytes or self.llc.block_bytes != self.oram.block_bytes:
            raise ValueError("cache line size must match the ORAM block size")

    def with_block_bytes(self, block_bytes: int) -> "SystemConfig":
        """Copy of this config with a different cacheline/block size everywhere."""
        return replace(
            self,
            oram=replace(self.oram, block_bytes=block_bytes),
            l1=replace(self.l1, block_bytes=block_bytes),
            llc=replace(self.llc, block_bytes=block_bytes),
        )


DEFAULT_CONFIG = SystemConfig()
