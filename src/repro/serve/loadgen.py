"""Deterministic open- and closed-loop load generators.

Both sources speak the same protocol the front-end event loop drives:

* :attr:`LoadSource.next_arrival_cycle` -- the next arrival time (``None``
  when none is scheduled), an attribute the source keeps where it changes;
* :meth:`LoadSource.take_arrivals` -- pop every request due at/before a
  cycle, in ``(cycle, req_id)`` order;
* :meth:`LoadSource.on_completion` / :meth:`LoadSource.on_shed` --
  completion feedback (the closed-loop source schedules each client's next
  request from it); the front end calls them only on a source whose
  :attr:`LoadSource.feedback` is set, and otherwise takes arrivals only
  when one is due;
* :attr:`LoadSource.exhausted` -- no arrival will *ever* surface again,
  likewise an attribute.

An open loop's arrivals are fixed up front, so it is a stream: it holds
them in arrival order and builds each :class:`Request` only when
:meth:`LoadSource.take_arrivals` reaches it.  Only the closed loop, whose
completions create arrivals, keeps a heap.

Everything draws from forked :class:`~repro.utils.rng.DeterministicRng`
streams, so a (source seed, front-end config, bank seed) triple replays
bit-identically.
"""

from __future__ import annotations

import heapq
import math
from itertools import pairwise
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.serve.request import Request
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng

DEFAULT_DEADLINE = 30_000

#: An arrival fixed up front: ``(cycle, tenant, addr, is_write)``.
Arrival = Tuple[int, int, int, bool]


class LoadSource:
    """Base: a deterministic stream of arrivals fixed up front.

    The arrivals are held in ``(cycle, tenant)`` order and walked by index;
    a request's ``req_id`` is its position in that order.  They are either
    :data:`Arrival` tuples, or a trace's entries offered round-robin across
    the tenants -- indexed in the trace's ``gaps`` / ``addrs`` / ``writes``
    columns -- whose cycles a float clock (``clock += gap / load_scale``)
    carries forward one entry at a time.
    :class:`ClosedLoopSource` replaces the stream with a heap.  The walk
    lives here rather than on :class:`OpenLoopSource` because the
    ``serve.take_arrivals`` span boundary of ``benchmarks/perf`` patches
    ``LoadSource.take_arrivals``.
    """

    #: True when completion/shed feedback can schedule new arrivals (the
    #: hooks below are no-ops otherwise, and the front end skips them)
    feedback = False

    def __init__(
        self,
        num_tenants: int,
        weights: Optional[Sequence[int]] = None,
        arrivals: Sequence = (),
        *,
        deadline_cycles: int = DEFAULT_DEADLINE,
        load_scale: Optional[float] = None,
    ):
        if num_tenants < 1:
            raise ValueError("need at least one tenant")
        self.num_tenants = num_tenants
        self.weights: List[int] = list(weights) if weights else [1] * num_tenants
        if len(self.weights) != num_tenants:
            raise ValueError(
                f"one weight per tenant ({len(self.weights)} weights, "
                f"{num_tenants} tenants)"
            )
        if load_scale is None and any(a[0] > b[0] for a, b in pairwise(arrivals)):
            raise ValueError("arrivals must be in cycle order")
        self._arrivals = arrivals
        #: kept so the walk makes no call but each request's ``__init__``
        #: and ``append`` (the ``heappop`` + ``append`` the heap made)
        self._end = len(arrivals)
        self._deadline = deadline_cycles
        #: a trace stream's load scale; None for :data:`Arrival` tuples
        self._scale = load_scale
        self._index = 0
        self._clock = 0.0
        #: cycle of the next arrival; None once none is scheduled
        self.next_arrival_cycle: Optional[int] = None
        if load_scale is None:
            if arrivals:
                self.next_arrival_cycle = arrivals[0][0]
        else:
            # a trace's entries (:class:`~repro.sim.trace.TraceEntries`):
            # the walk indexes their columns
            self._gaps = arrivals.gaps
            self._addrs = arrivals.addrs
            self._writes = arrivals.writes
            if self._gaps:
                self._clock += self._gaps[0] / load_scale
                self.next_arrival_cycle = int(self._clock)
        #: no arrival will ever surface again
        self.exhausted = self.next_arrival_cycle is None

    # ---------------------------------------------------------------- protocol
    def take_arrivals(self, now: int) -> List[Request]:
        """Build and return every request with ``arrival_cycle <= now``."""
        due: List[Request] = []
        cycle = self.next_arrival_cycle
        arrivals = self._arrivals
        index = self._index
        end = self._end
        deadline = self._deadline
        scale = self._scale
        if scale is None:
            while cycle is not None and cycle <= now:
                _cycle, tenant, addr, is_write = arrivals[index]
                due.append(Request(index, tenant, addr, is_write, cycle, deadline))
                index += 1
                cycle = arrivals[index][0] if index < end else None
        else:
            tenants = self.num_tenants
            clock = self._clock
            gaps = self._gaps
            addrs = self._addrs
            writes = self._writes
            while cycle is not None and cycle <= now:
                due.append(
                    Request(
                        index, index % tenants, addrs[index], bool(writes[index]),
                        cycle, deadline,
                    )
                )
                index += 1
                if index < end:
                    clock += gaps[index] / scale
                    cycle = int(clock)
                else:
                    cycle = None
            self._clock = clock
        self._index = index
        self.next_arrival_cycle = cycle
        self.exhausted = cycle is None
        return due

    def on_completion(self, request: Request, cycle: int) -> None:
        """A request finished (default: open loop, nothing to do)."""

    def on_shed(self, request: Request, cycle: int) -> None:
        """A request was shed at admission (default: nothing to do)."""

    @property
    def footprint_blocks(self) -> int:
        """Smallest footprint covering every address the stream offers.

        Read off the whole arrival list, which the stream keeps, so the
        value survives the run draining the arrivals.
        """
        field = 2 if self._scale is None else 1
        return 1 + max((arrival[field] for arrival in self._arrivals), default=-1)


class OpenLoopSource(LoadSource):
    """Arrivals fixed up front; completions do not influence the stream."""

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        num_tenants: int = 1,
        *,
        weights: Optional[Sequence[int]] = None,
        deadline_cycles: int = DEFAULT_DEADLINE,
        load_scale: float = 1.0,
    ) -> "OpenLoopSource":
        """Offer a :class:`Trace` round-robin across ``num_tenants``.

        Arrival times are the trace's cumulative compute gaps divided by
        ``load_scale`` (2.0 = offer twice as fast).  The source walks the
        trace's columns in place, so it must not be appended to while the
        source runs.
        """
        if not 0.0 < load_scale < math.inf:
            raise ValueError(
                f"load_scale must be positive and finite, not {load_scale!r}"
            )
        return cls(
            num_tenants, weights, trace.entries,
            deadline_cycles=deadline_cycles, load_scale=load_scale,
        )

    @classmethod
    def synthetic(
        cls,
        num_tenants: int,
        requests_per_tenant: int,
        *,
        footprint_per_tenant: int = 2_048,
        gap_mean: float = 200.0,
        locality: float = 0.5,
        write_fraction: float = 0.2,
        deadline_cycles: int = DEFAULT_DEADLINE,
        weights: Optional[Sequence[int]] = None,
        seed: int = 42,
    ) -> "OpenLoopSource":
        """Multi-tenant synthetic mix over disjoint per-tenant regions.

        Each tenant cyclically scans a ``locality`` fraction of its private
        region and hits the rest uniformly at random (the section 5.3
        pattern), with exponential inter-arrival gaps of ``gap_mean``
        cycles -- the open-loop knob benchmarks sweep for offered load.
        """
        if requests_per_tenant < 1:
            raise ValueError("need at least one request per tenant")
        if footprint_per_tenant < 1:
            raise ValueError("tenant regions need at least one block")
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be within [0, 1]")
        if gap_mean < 0:
            raise ValueError(f"gap_mean must be >= 0 cycles, not {gap_mean:g}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        root = DeterministicRng(seed)
        seq_blocks = int(footprint_per_tenant * locality)
        if locality > 0.0 and seq_blocks == 0:
            seq_blocks = 1
        arrivals: List[Arrival] = []
        for tenant in range(num_tenants):
            rng = root.fork(17 + tenant)
            base = tenant * footprint_per_tenant
            pointer = 0
            now = 0
            for _ in range(requests_per_tenant):
                now += rng.expovariate_int(gap_mean)
                if seq_blocks > 0 and rng.random() < locality:
                    offset = pointer
                    pointer = (pointer + 1) % seq_blocks
                elif seq_blocks >= footprint_per_tenant:
                    offset = rng.randint(0, footprint_per_tenant - 1)
                else:
                    offset = rng.randint(seq_blocks, footprint_per_tenant - 1)
                is_write = rng.random() < write_fraction
                arrivals.append((now, tenant, base + offset, is_write))
        # Global arrival order: by cycle, ties by tenant -- req_ids are
        # assigned in that order so every downstream tie-break is stable.
        arrivals.sort(key=itemgetter(0, 1))
        return cls(num_tenants, weights, arrivals, deadline_cycles=deadline_cycles)


class ClosedLoopSource(LoadSource):
    """Fixed client population; each client thinks, issues, and blocks.

    A client's next request is scheduled ``think`` cycles after its
    previous one completes (or is shed -- a shed request still unblocks
    the client, modelling a user retrying later), so offered load adapts
    to service capacity like a real interactive population.
    """

    feedback = True

    def __init__(
        self,
        num_tenants: int,
        clients_per_tenant: int,
        requests_per_client: int,
        *,
        footprint_per_tenant: int = 2_048,
        think_mean: float = 500.0,
        write_fraction: float = 0.2,
        deadline_cycles: int = DEFAULT_DEADLINE,
        weights: Optional[Sequence[int]] = None,
        seed: int = 42,
    ):
        super().__init__(num_tenants, weights)
        if clients_per_tenant < 1 or requests_per_client < 1:
            raise ValueError("need at least one client and one request each")
        if footprint_per_tenant < 1:
            raise ValueError("tenant regions need at least one block")
        if think_mean < 0:
            raise ValueError(f"think_mean must be >= 0 cycles, not {think_mean:g}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        self.deadline_cycles = deadline_cycles
        self.write_fraction = write_fraction
        self.footprint_per_tenant = footprint_per_tenant
        root = DeterministicRng(seed)
        self.think_mean = think_mean
        self._heap: List[Tuple[int, int, Request]] = []
        self._next_id = 0
        self._rngs: List[DeterministicRng] = []
        self._remaining: List[int] = []
        self._tenant_of: List[int] = []
        #: clients that still hold request credit (``_remaining > 0``)
        self._with_credit = num_tenants * clients_per_tenant
        client = 0
        for tenant in range(num_tenants):
            for _ in range(clients_per_tenant):
                rng = root.fork(1009 + client)
                self._rngs.append(rng)
                self._remaining.append(requests_per_client)
                self._tenant_of.append(tenant)
                self._issue_next(client, 0)
                client += 1
        # Every client holds a request in the heap; the heap drains for
        # good only in take_arrivals, once no client holds credit.
        self.exhausted = False

    def _issue_next(self, client: int, after_cycle: int) -> None:
        rng = self._rngs[client]
        tenant = self._tenant_of[client]
        cycle = after_cycle + rng.expovariate_int(self.think_mean)
        addr = tenant * self.footprint_per_tenant + rng.randint(
            0, self.footprint_per_tenant - 1
        )
        is_write = rng.random() < self.write_fraction
        self._remaining[client] -= 1
        if not self._remaining[client]:
            self._with_credit -= 1
        request = Request(
            self._next_id, tenant, addr, is_write, cycle, self.deadline_cycles,
            client,
        )
        heapq.heappush(self._heap, (cycle, request.req_id, request))
        self.next_arrival_cycle = self._heap[0][0]
        self._next_id += 1

    def _advance(self, request: Request, cycle: int) -> None:
        client = request.client
        if client >= 0 and self._remaining[client] > 0:
            self._issue_next(client, cycle)

    def take_arrivals(self, now: int) -> List[Request]:
        """Pop every request with ``arrival_cycle <= now``."""
        due: List[Request] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        if heap:
            self.next_arrival_cycle = heap[0][0]
        else:
            # Clients blocked on an in-flight request will schedule again
            # from completion feedback; only a drained heap with no
            # credits left is truly done.
            self.next_arrival_cycle = None
            self.exhausted = not self._with_credit
        return due

    def on_completion(self, request: Request, cycle: int) -> None:
        self._advance(request, cycle)

    def on_shed(self, request: Request, cycle: int) -> None:
        self._advance(request, cycle)

    @property
    def footprint_blocks(self) -> int:
        return self.num_tenants * self.footprint_per_tenant
