"""Memory-reference traces.

A trace entry is ``(gap, addr, is_write)``: the in-order core executes
``gap`` cycles of non-memory work, then issues one load/store to *block*
address ``addr``.  Traces work at cacheline granularity -- no experiment in
the paper depends on byte offsets -- and the same trace drives every scheme
so comparisons are exact.

Entries are plain tuples (not objects) because the simulator's inner loop
iterates millions of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

#: (compute-gap cycles, block address, is_write as 0/1)
TraceEntry = Tuple[int, int, int]


@dataclass
class Trace:
    """A named memory trace plus the metadata the harness needs.

    ``total_gap_cycles`` and ``write_fraction`` are summed over
    :attr:`entries` when read (the run banner and the examples read them
    once), so code that appends raw tuples straight to :attr:`entries` --
    the generators' hot loops do -- needs no bookkeeping.
    """

    name: str
    footprint_blocks: int
    entries: List[TraceEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.footprint_blocks < 1:
            raise ValueError("footprint must be at least one block")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def append(self, gap: int, addr: int, is_write: bool = False) -> None:
        if not 0 <= addr < self.footprint_blocks:
            raise ValueError(
                f"address {addr} outside the declared footprint "
                f"[0, {self.footprint_blocks})"
            )
        self.entries.append((gap, addr, 1 if is_write else 0))

    def extend(self, entries: Iterable[TraceEntry]) -> None:
        """Append many entries atomically, validating each exactly once:
        a bad entry raises before anything is appended, so a failed extend
        leaves the trace untouched."""
        footprint = self.footprint_blocks
        staged: List[TraceEntry] = []
        for gap, addr, is_write in entries:
            if not 0 <= addr < footprint:
                raise ValueError(
                    f"address {addr} outside the declared footprint "
                    f"[0, {footprint})"
                )
            staged.append((gap, addr, 1 if is_write else 0))
        self.entries.extend(staged)

    # ------------------------------------------------------------ properties
    @property
    def total_gap_cycles(self) -> int:
        return sum(entry[0] for entry in self.entries)

    @property
    def write_fraction(self) -> float:
        if not self.entries:
            return 0.0
        return sum(entry[2] for entry in self.entries) / len(self.entries)

    # ------------------------------------------------------------------- I/O
    def save(self, path: str) -> None:
        """Write a portable text representation."""
        with open(path, "w") as handle:
            handle.write(f"# trace {self.name}\n")
            handle.write(f"# footprint_blocks {self.footprint_blocks}\n")
            for gap, addr, is_write in self.entries:
                handle.write(f"{gap} {addr} {is_write}\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        name = "trace"
        footprint = None
        entries: List[TraceEntry] = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line[1:].split()
                    if parts[:1] == ["trace"] and len(parts) > 1:
                        name = parts[1]
                    elif parts[:1] == ["footprint_blocks"] and len(parts) > 1:
                        footprint = int(parts[1])
                    continue
                gap, addr, is_write = line.split()
                entries.append((int(gap), int(addr), int(is_write)))
        if footprint is None:
            footprint = max((entry[1] for entry in entries), default=0) + 1
        trace = cls(name=name, footprint_blocks=footprint)
        trace.entries = entries
        return trace
