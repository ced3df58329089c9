"""Deadline-aware request-serving front end over the sharded ORAM bank.

The production-shaped layer DESIGN.md section 12 describes: bounded
weighted-fair tenant queues, super-block request coalescing, deadline-aware
batch formation, and health-plane backpressure -- all cycle-clocked and
seed-deterministic.  The front end only schedules: replaying its issued
accesses straight through the bank reproduces its SimResult bit for bit.
"""

from repro.serve.frontend import ServingFrontEnd
from repro.serve.loadgen import (
    DEFAULT_DEADLINE,
    ClosedLoopSource,
    LoadSource,
    OpenLoopSource,
)
from repro.serve.queue import TenantQueues
from repro.serve.request import (
    PENDING,
    SERVED,
    SHED,
    Request,
    ServeReport,
    TenantReport,
)

__all__ = [
    "DEFAULT_DEADLINE",
    "PENDING",
    "SERVED",
    "SHED",
    "ClosedLoopSource",
    "LoadSource",
    "OpenLoopSource",
    "Request",
    "ServeReport",
    "ServingFrontEnd",
    "TenantQueues",
    "TenantReport",
]
