"""Memory-reference traces.

A trace entry is ``(gap, addr, is_write)``: the in-order core executes
``gap`` cycles of non-memory work, then issues one load/store to *block*
address ``addr``.  Traces work at cacheline granularity -- no experiment in
the paper depends on byte offsets -- and the same trace drives every scheme
so comparisons are exact.

A trace is stored as three typed columns, not as entry objects: ``gaps``
and ``addrs`` are ``array('q')`` and ``writes`` a ``bytearray`` of 0/1,
17 bytes per entry where a tuple of three ints costs about 100.  The
simulator's inner loops ``zip`` the columns (C iterators, no call per
entry); :attr:`Trace.entries` is the read-only tuple view everything else
reads.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Tuple

#: (compute-gap cycles, block address, is_write as 0/1)
TraceEntry = Tuple[int, int, int]

#: entries per piece of :meth:`TraceEntries.__repr__`
_REPR_CHUNK = 4096


def _int_column() -> array:
    return array("q")


class TraceEntries(Sequence):
    """The ``(gap, addr, is_write)`` tuples of three columns, made on read.

    Behaves as the list of those tuples for ``len``, iteration, indexing
    (negative too), slicing (a view of copied column slices), ``==``
    against a list or another view, and ``repr`` -- byte for byte, so a
    digest of ``repr(trace.entries)`` is the one the list gave.
    """

    __slots__ = ("gaps", "addrs", "writes")
    __hash__ = None  # type: ignore[assignment]  (mutable, as the list was)

    def __init__(self, gaps: array, addrs: array, writes: bytearray):
        self.gaps = gaps
        self.addrs = addrs
        self.writes = writes

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[TraceEntry]:
        return zip(self.gaps, self.addrs, self.writes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TraceEntries(self.gaps[index], self.addrs[index], self.writes[index])
        return (self.gaps[index], self.addrs[index], self.writes[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceEntries):
            return (
                self.gaps == other.gaps
                and self.addrs == other.addrs
                and self.writes == other.writes
            )
        if isinstance(other, list):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        """The list's repr, built a piece at a time: no list of every
        tuple, and (``+=`` on a sole reference resizes in place) no second
        copy of the text."""
        gaps, addrs, writes = self.gaps, self.addrs, self.writes
        text = "["
        separator = ""
        for start in range(0, len(gaps), _REPR_CHUNK):
            stop = start + _REPR_CHUNK
            piece = repr(list(zip(gaps[start:stop], addrs[start:stop], writes[start:stop])))
            text += separator
            text += piece[1:-1]
            separator = ", "
        text += "]"
        return text


@dataclass
class Trace:
    """A named memory trace plus the metadata the harness needs.

    The entries live in the three columns (see the module docstring); a
    generator appends to them directly, :meth:`append` / :meth:`extend`
    validate first.  ``total_gap_cycles`` and ``write_fraction`` are
    summed over the columns when read (the run banner and the examples
    read them once), so a direct write needs no bookkeeping.
    """

    name: str
    footprint_blocks: int
    gaps: array = field(default_factory=_int_column, init=False, repr=False)
    addrs: array = field(default_factory=_int_column, init=False, repr=False)
    writes: bytearray = field(default_factory=bytearray, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.footprint_blocks < 1:
            raise ValueError("footprint must be at least one block")

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[TraceEntry]:
        return zip(self.gaps, self.addrs, self.writes)

    @property
    def entries(self) -> TraceEntries:
        """The entries as ``(gap, addr, is_write)`` tuples (read-only view)."""
        return TraceEntries(self.gaps, self.addrs, self.writes)

    def append(self, gap: int, addr: int, is_write: bool = False) -> None:
        if not 0 <= addr < self.footprint_blocks:
            raise ValueError(
                f"address {addr} outside the declared footprint "
                f"[0, {self.footprint_blocks})"
            )
        self.gaps.append(gap)
        self.addrs.append(addr)
        self.writes.append(1 if is_write else 0)

    def extend(self, entries: Iterable[TraceEntry]) -> None:
        """Append many entries atomically, validating each exactly once:
        a bad entry raises before anything is appended, so a failed extend
        leaves the trace untouched."""
        footprint = self.footprint_blocks
        gaps = array("q")
        addrs = array("q")
        writes = bytearray()
        for gap, addr, is_write in entries:
            if not 0 <= addr < footprint:
                raise ValueError(
                    f"address {addr} outside the declared footprint "
                    f"[0, {footprint})"
                )
            gaps.append(gap)
            addrs.append(addr)
            writes.append(1 if is_write else 0)
        self.gaps.extend(gaps)
        self.addrs.extend(addrs)
        self.writes.extend(writes)

    # ------------------------------------------------------------ properties
    @property
    def total_gap_cycles(self) -> int:
        return sum(self.gaps)

    @property
    def write_fraction(self) -> float:
        if not self.writes:
            return 0.0
        return sum(self.writes) / len(self.writes)

    # ------------------------------------------------------------------- I/O
    def save(self, path: str) -> None:
        """Write a portable text representation."""
        with open(path, "w") as handle:
            handle.write(f"# trace {self.name}\n")
            handle.write(f"# footprint_blocks {self.footprint_blocks}\n")
            for gap, addr, is_write in self:
                handle.write(f"{gap} {addr} {is_write}\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        name = "trace"
        footprint = None
        gaps = array("q")
        addrs = array("q")
        writes = bytearray()
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
                gaps.append(int(gap))
                addrs.append(int(addr))
                writes.append(int(is_write))
        if footprint is None:
            footprint = max(addrs, default=0) + 1
        trace = cls(name=name, footprint_blocks=footprint)
        trace.gaps, trace.addrs, trace.writes = gaps, addrs, writes
        return trace
