"""Capture memory traces from real (Python) programs.

The paper's traces come from instrumented benchmark binaries.  This module
provides the equivalent for the reproduction: an instrumented heap whose
arrays record every element access as a block-granularity trace entry, so
*actual algorithms* -- matrix multiply, binary search, list traversal --
can be run through the secure-processor simulator and PrORAM.

Example::

    recorder = TraceRecorder("matmul")
    a = recorder.array(n * n)          # element-addressed, 8 B elements
    b = recorder.array(n * n)
    c = recorder.array(n * n)
    ... ordinary index arithmetic on a/b/c ...
    trace = recorder.trace()           # feed to SecureSystem / run_schemes

Arrays behave like real storage (reads return what was written), so the
captured program is functionally checked while its access pattern is
recorded.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional

from repro.sim.trace import Trace

DEFAULT_BLOCK_BYTES = 128


class InstrumentedArray:
    """A fixed-size array whose element accesses are recorded.

    Supports ``a[i]`` / ``a[i] = v`` and ``len``; slices are intentionally
    unsupported (each element access must be visible to the recorder).
    """

    def __init__(self, recorder: "TraceRecorder", base_block: int, length: int,
                 element_bytes: int, name: str):
        self._recorder = recorder
        self._base_block = base_block
        self._element_bytes = element_bytes
        self._values: List[Any] = [0] * length
        self.name = name

    def __len__(self) -> int:
        return len(self._values)

    def _block_of(self, index: int) -> int:
        if not 0 <= index < len(self._values):
            raise IndexError(f"{self.name}[{index}] out of range")
        return self._base_block + (index * self._element_bytes) // self._recorder.block_bytes

    def __getitem__(self, index: int) -> Any:
        self._recorder._record(self._block_of(index), is_write=False)
        return self._values[index]

    def __setitem__(self, index: int, value: Any) -> None:
        self._recorder._record(self._block_of(index), is_write=True)
        self._values[index] = value

    @property
    def blocks(self) -> int:
        """Number of cacheline blocks this array spans."""
        total_bytes = len(self._values) * self._element_bytes
        return (total_bytes + self._recorder.block_bytes - 1) // self._recorder.block_bytes


class TraceRecorder:
    """An instrumented heap: allocates arrays and records their accesses.

    Args:
        name: trace name.
        block_bytes: cacheline size (must match the simulated system's).
        gap_cycles: compute cycles charged between consecutive memory
            touches (the simple surrogate for the instructions in between;
            use :meth:`compute` for explicit extra work).
    """

    def __init__(self, name: str, block_bytes: int = DEFAULT_BLOCK_BYTES, gap_cycles: int = 4):
        self.name = name
        self.block_bytes = block_bytes
        self.gap_cycles = gap_cycles
        #: the recorded entries, as the columns of a :class:`Trace`
        self._gaps = array("q")
        self._addrs = array("q")
        self._writes = bytearray()
        self._next_block = 0
        self._pending_gap = 0
        self._arrays: List[InstrumentedArray] = []

    # ------------------------------------------------------------ allocation
    def array(self, length: int, element_bytes: int = 8, name: Optional[str] = None) -> InstrumentedArray:
        """Allocate a block-aligned array of ``length`` elements."""
        if length < 1:
            raise ValueError("arrays need at least one element")
        if element_bytes < 1 or element_bytes > self.block_bytes:
            raise ValueError("element size must be within one block")
        label = name or f"array{len(self._arrays)}"
        array = InstrumentedArray(self, self._next_block, length, element_bytes, label)
        self._next_block += array.blocks
        self._arrays.append(array)
        return array

    # ------------------------------------------------------------- recording
    def _record(self, block: int, is_write: bool) -> None:
        gap = self.gap_cycles + self._pending_gap
        self._pending_gap = 0
        self._gaps.append(gap)
        self._addrs.append(block)
        self._writes.append(1 if is_write else 0)

    def compute(self, cycles: int) -> None:
        """Charge explicit compute work before the next memory touch."""
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        self._pending_gap += cycles

    # ------------------------------------------------------------------ out
    @property
    def footprint_blocks(self) -> int:
        return max(1, self._next_block)

    def trace(self) -> Trace:
        """The captured trace (a snapshot; recording may continue)."""
        out = Trace(name=self.name, footprint_blocks=self.footprint_blocks)
        out.gaps = self._gaps[:]
        out.addrs = self._addrs[:]
        out.writes = self._writes[:]
        return out

    def __len__(self) -> int:
        return len(self._gaps)


# --------------------------------------------------------------- programs
def record_matmul(n: int = 48, gap_cycles: int = 4) -> Trace:
    """Record a naive n x n matrix multiply (row-major, 8 B elements).

    Rows of A and the result stream sequentially -- prime PrORAM food;
    B is walked column-wise (strided).
    """
    recorder = TraceRecorder(f"matmul_{n}", gap_cycles=gap_cycles)
    a = recorder.array(n * n, name="A")
    b = recorder.array(n * n, name="B")
    c = recorder.array(n * n, name="C")
    for i in range(n * n):
        a[i] = i % 7
        b[i] = i % 5
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += a[i * n + k] * b[k * n + j]
                recorder.compute(2)
            c[i * n + j] = acc
    # Functional spot-check: the captured program really multiplied.
    assert c[0] == sum(a._values[k] * b._values[k * n] for k in range(n))
    return recorder.trace()


def record_pointer_chase(nodes: int = 4096, hops: int = 20_000, seed: int = 9,
                         gap_cycles: int = 8) -> Trace:
    """Record a random linked-list traversal: zero spatial locality."""
    from repro.utils.rng import DeterministicRng

    rng = DeterministicRng(seed)
    recorder = TraceRecorder(f"chase_{nodes}", gap_cycles=gap_cycles)
    # One node per block so every hop is a distinct line.
    next_field = recorder.array(nodes, element_bytes=recorder.block_bytes, name="nodes")
    order = rng.permutation(nodes)
    for position, node in enumerate(order):
        next_field[node] = order[(position + 1) % nodes]
    current = order[0]
    for _ in range(hops):
        current = next_field[current]
    return recorder.trace()


def record_bfs(nodes: int = 2048, avg_degree: int = 4, seed: int = 11,
               gap_cycles: int = 6) -> Trace:
    """Record a breadth-first search over a random adjacency-list graph.

    The frontier queue and the visited bitmap stream sequentially (PrORAM
    harvestable); the adjacency lists are reached through random node
    offsets (not harvestable) -- BFS is the classic mixed-locality case.
    """
    from repro.utils.rng import DeterministicRng

    rng = DeterministicRng(seed)
    recorder = TraceRecorder(f"bfs_{nodes}", gap_cycles=gap_cycles)
    # Compressed adjacency: offsets[node] -> start index into edges.
    offsets = recorder.array(nodes + 1, name="offsets")
    edge_targets: List[int] = []
    for node in range(nodes):
        offsets._values[node] = len(edge_targets)
        for _ in range(1 + rng.randint(0, 2 * avg_degree - 2)):
            edge_targets.append(rng.randint(0, nodes - 1))
    offsets._values[nodes] = len(edge_targets)
    edges = recorder.array(max(1, len(edge_targets)), name="edges")
    edges._values[: len(edge_targets)] = edge_targets
    visited = recorder.array(nodes, element_bytes=1, name="visited")
    queue = recorder.array(nodes, name="queue")

    head = tail = 0
    queue[tail] = 0
    tail += 1
    visited[0] = 1
    reached = 1
    while head < tail:
        node = queue[head]
        head += 1
        start = offsets[node]
        end = offsets[node + 1]
        for index in range(start, end):
            neighbor = edges[index]
            recorder.compute(2)
            if not visited[neighbor]:
                visited[neighbor] = 1
                reached += 1
                if tail < nodes:
                    queue[tail] = neighbor
                    tail += 1
    assert reached >= 1
    return recorder.trace()


def record_binary_search(elements: int = 1 << 15, lookups: int = 4_000, seed: int = 10,
                         gap_cycles: int = 6) -> Trace:
    """Record repeated binary searches over a sorted array."""
    from repro.utils.rng import DeterministicRng

    rng = DeterministicRng(seed)
    recorder = TraceRecorder(f"bsearch_{elements}", gap_cycles=gap_cycles)
    data = recorder.array(elements, name="sorted")
    for i in range(elements):
        data._values[i] = 2 * i  # bulk init without recording
    found = 0
    for _ in range(lookups):
        needle = rng.randint(0, 2 * elements)
        lo, hi = 0, elements - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            value = data[mid]
            recorder.compute(3)
            if value == needle:
                found += 1
                break
            if value < needle:
                lo = mid + 1
            else:
                hi = mid - 1
    return recorder.trace()
