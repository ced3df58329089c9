"""One shape for an access's answer, on every backend.

``demand_access`` answers ``(completion_cycle, fills)``: an int and a list
of the int addresses whose lines enter the LLC, the demand address among
them.  ``prefetch_access`` answers the same pair or ``None`` when the
backend declines.  Which fill is a prefetch is not in the answer: on an
ORAM backend it is the policy tracker's prefetch bit (set for every line a
prefetch brings in), the one record of that fact.  Building the answer
costs the access path no object: a ``dyn`` demand access, on a lone
controller and on a bank, runs no dataclass-generated ``__init__``.
"""

import sys

import pytest

from repro.config import SystemConfig
from repro.health import HealthPolicy
from repro.sim.system import build_backend

FOOTPRINT = 256

#: every route an LLC miss takes to memory
BACKENDS = {
    "dram": ("dram", {}),
    "oram": ("oram", {}),
    "stat": ("stat", {}),
    "dyn": ("dyn", {}),
    "dyn_strided": ("dyn_strided", {}),
    "dyn_intvl": ("dyn_intvl", {}),
    "bank3": ("dyn", {"num_shards": 3}),
    "bank_health": ("dyn", {"num_shards": 2, "health_policy": HealthPolicy(window=8)}),
}


def build(name):
    scheme, wiring = BACKENDS[name]
    backend, _ = build_backend(scheme, FOOTPRINT, SystemConfig(), **wiring)
    return backend


def prefetch_bit(backend, addr):
    """The tracker's prefetch bit of a global address (ORAM backends)."""
    width = len(backend.shards)
    shard = backend.shards[addr % width]
    return shard.oram.position_map.prefetch_bit(addr // width)


def is_answer(answer):
    if type(answer) is not tuple or len(answer) != 2:
        return False
    completion, fills = answer
    return (
        type(completion) is int
        and type(fills) is list
        and all(type(fill) is int for fill in fills)
    )


@pytest.mark.parametrize("name", list(BACKENDS))
def test_every_backend_answers_completion_and_fill_addresses(name):
    backend = build(name)
    # The LLC stand-in: fills enter it, a sweep every 24 misses empties it,
    # and the policy's probe reads it, so super blocks form and fill pairs.
    resident = {}
    backend.set_llc_probe(resident.__contains__)
    limit = min(backend.num_blocks, 96)
    now = 0
    widest = 0
    for step in range(400):
        addr = (step * 5 // 4) % limit
        if addr in resident:
            continue  # the core asks the backend only on an LLC miss
        answer = backend.demand_access(addr, now, step % 7 == 0)
        assert is_answer(answer), answer
        completion, fills = answer
        assert addr in fills
        assert completion > now
        widest = max(widest, len(fills))
        resident.update(dict.fromkeys(fills))
        now = completion
        if len(resident) >= 24:
            for victim in list(resident):
                del resident[victim]
                backend.evict_line(victim, False, now)
    if name in ("stat", "dyn"):
        assert widest > 1  # the contract held on super-block answers too

    answered = declined = 0
    stride = len(backend.shards) or 1  # the next address on the same channel
    for step in range(40):
        addr = (step * 37 + 11) % limit
        if addr in resident:
            continue
        # every other prefetch arrives idle, the rest behind a backlog of
        # two demands on its channel
        now = backend.busy_until + 100_000
        if step % 2 == 0:
            for ahead in (1, 2):
                backend.demand_access((addr + ahead * stride) % limit, now, False)
            resident.clear()
        answer = backend.prefetch_access(addr, now)
        if answer is None:
            declined += 1
            continue
        answered += 1
        assert is_answer(answer), answer
        completion, fills = answer
        assert addr in fills and completion > now
        if backend.shards:
            assert all(prefetch_bit(backend, fill) == 1 for fill in fills)
    assert answered
    # the periodic backend issues a prefetch at its next free slot instead
    assert declined or name == "dyn_intvl"


def generated_inits(access):
    """The dataclass-generated ``__init__`` frames *access* enters (their
    code is compiled from a string, not from a source file)."""
    seen = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if (
            event == "call"
            and code.co_name == "__init__"
            and not code.co_filename.endswith(".py")
        ):
            seen.append(frame.f_locals.get("self").__class__.__name__)

    sys.setprofile(profile)
    try:
        access()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("name", ["dyn", "bank3"])
def test_a_dyn_demand_access_builds_no_dataclass(name):
    backend = build(name)
    for addr in range(24):  # warm the PosMap cache and the policy
        backend.demand_access(addr, backend.busy_until, False)
    assert generated_inits(
        lambda: backend.demand_access(40, backend.busy_until, False)
    ) == []
    # the guard sees what it guards against
    assert generated_inits(lambda: HealthPolicy(window=8)) == ["HealthPolicy"]
