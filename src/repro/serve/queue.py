"""Bounded per-tenant ingress queues with weighted-fair dequeue.

Admission control and fairness live here, decoupled from batch formation:
each tenant owns one bounded FIFO, and :meth:`TenantQueues.pop_where`
picks the next tenant by *smooth weighted round-robin* -- every pick, each
backlogged tenant's credit grows by its weight and the highest-credit
tenant (ties break on the lower index) is served and debited by the total
active weight.  The schedule is a pure function of the push/pop sequence,
so the front end stays seed-deterministic, and over any busy window tenant
``i`` receives service proportional to ``weight_i``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Sequence

from repro.serve.request import Request


class TenantQueues:
    """N bounded FIFOs behind one weighted-fair dequeue surface.

    Args:
        weights: per-tenant service weights (positive integers).
        capacity: per-tenant queue bound; :meth:`push` refuses (sheds)
            beyond it.
    """

    def __init__(self, weights: Sequence[int], capacity: int):
        if not weights:
            raise ValueError("need at least one tenant")
        if any(w < 1 for w in weights):
            raise ValueError("tenant weights must be positive")
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.weights: List[int] = list(weights)
        self.num_tenants = len(self.weights)
        self.capacity = capacity
        self._queues: List[deque] = [deque() for _ in weights]
        #: each queue's length, kept where it changes (no ``len`` per push)
        self._depths: List[int] = [0] * self.num_tenants
        self._credit: List[int] = [0] * self.num_tenants
        #: high-water mark per tenant (exported as queue-depth gauges)
        self.peak_depth: List[int] = [0] * self.num_tenants
        #: requests queued over every tenant -- :meth:`total_depth`, kept
        #: where it changes so a caller can skip an all-empty scan
        self.queued = 0

    # ------------------------------------------------------------------ state
    def depth(self, tenant: int) -> int:
        return self._depths[tenant]

    def total_depth(self) -> int:
        return sum(len(q) for q in self._queues)

    # ------------------------------------------------------------------- push
    def push(self, request: Request) -> bool:
        """Enqueue unless the tenant's bound is hit; False means shed."""
        tenant = request.tenant
        depth = self._depths[tenant]
        if depth >= self.capacity:
            return False
        self._queues[tenant].append(request)
        self._depths[tenant] = depth + 1
        self.queued += 1
        if depth >= self.peak_depth[tenant]:
            self.peak_depth[tenant] = depth + 1
        return True

    # -------------------------------------------------------------------- pop
    def pop_where(
        self,
        eligible: Optional[Callable[[Request], bool]] = None,
        sizes: Optional[Sequence[int]] = None,
        quotas: Optional[Sequence[int]] = None,
        blocked: Optional[List[bool]] = None,
    ) -> Optional[Request]:
        """Weighted-fair pop of the next head request passing ``eligible``.

        Tenants whose head request fails the predicate (e.g. its target
        shard's batch is full) are skipped *without* accruing credit for
        the pick, so a blocked tenant neither starves the others nor banks
        unbounded priority while blocked.  Returns None when no eligible
        head exists.

        Given ``sizes`` and ``quotas`` (each shard's open-batch size and
        batch quota), a head whose shard's batch has room is eligible
        outright: ``eligible`` is called only for the others.

        Given ``blocked`` (one flag per tenant, owned by the caller), a
        tenant flagged there is skipped unjudged, and a tenant whose head
        fails ``eligible`` is flagged.  The caller keeps the list only
        while a failed head cannot turn eligible: it keeps its head (it is
        not popped and nothing is pushed), and its shard neither gains
        room nor opens a group the head could join.
        """
        credit = self._credit
        weights = self.weights
        total = 0
        best = -1
        best_credit = 0
        for tenant, queue in enumerate(self._queues):
            if not queue:
                continue
            if eligible is not None:
                if blocked is not None and blocked[tenant]:
                    continue
                head = queue[0]
                if sizes is None or sizes[head.shard] >= quotas[head.shard]:
                    if not eligible(head):
                        if blocked is not None:
                            blocked[tenant] = True
                        continue
            weight = weights[tenant]
            credit[tenant] += weight
            total += weight
            if best < 0 or credit[tenant] > best_credit:
                best = tenant
                best_credit = credit[tenant]
        if best < 0:
            return None
        credit[best] -= total
        self._depths[best] -= 1
        self.queued -= 1
        return self._queues[best].popleft()
