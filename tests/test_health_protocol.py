"""The health protocol as a state machine: a bank under quarantines and faults.

A hypothesis ``RuleBasedStateMachine`` drives a 3-shard ``dyn`` bank with a
health plane and a transient-fault injector through two rules,
``access(addr, write)`` and ``quarantine(shard)``, and holds it to DESIGN
section 10's table (``tests.test_health.TRAFFIC``, restated there as the
oracle rather than read from :class:`~repro.health.HealthState`):

* an access adds exactly one dummy path to its shard iff the shard's
  state before the access is padded, and none to any other shard;
* after every step each shard runs degraded iff its breaker's state is
  throttled, and the bank's fsck audit is clean.

Two planted bugs are each caught within hypothesis's default example
budget and shrink to at most 10 steps: padding only quarantined shards
(a wrong table), and dropping the throttle sync after the feed (a mutant
of :func:`repro.controller.sharded.health_access`, the health step a bank
channel and a shard worker share).
"""

import inspect
import textwrap

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.config import SystemConfig
from repro.controller import sharded
from repro.controller.sharded import build_bank
from repro.faults.injector import FaultConfig, FaultInjector
from repro.health import HealthPolicy, HealthState
from tests.test_health import TRAFFIC

SHARDS = 3
FOOTPRINT = 16 * SHARDS
POLICY = HealthPolicy(window=4, quarantine_cooldown=2, probe_batch=3, probe_successes=2)
#: the default example budget, deterministic, no example database; no
#: explain phase (it traces every line of a failing example, 5x the time)
SETTINGS = settings(
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow],
)
#: the rules the current (last) example ran, so a shrunk failure can be
#: measured after hypothesis replays it
STEPS = []


class HealthProtocolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        STEPS.clear()
        self.bank = build_bank(
            "dyn",
            FOOTPRINT,
            SystemConfig(),
            SHARDS,
            health_policy=POLICY,
            fault_injector=FaultInjector(FaultConfig(seed=5, transient_rate=0.03)),
        )
        self.padding = [0] * SHARDS
        for index, shard in enumerate(self.bank.shards):
            shard.dummy_path_access = self._counting(index, shard.dummy_path_access)
        self.now = 0

    def _counting(self, index, dummy_path_access):
        def counted(now):
            self.padding[index] += 1
            return dummy_path_access(now)

        return counted

    @rule(addr=st.integers(0, FOOTPRINT - 1), write=st.booleans())
    def access(self, addr, write):
        STEPS.append(("access", addr, write))
        shard = self.bank.shard_of(addr)
        _throttled, padded = TRAFFIC[self.bank.health.state(shard).value]
        expected = list(self.padding)
        expected[shard] += padded
        self.now += 100
        self.bank.demand_access(addr, self.now, write)
        assert self.padding == expected

    @rule(shard=st.integers(0, SHARDS - 1))
    def quarantine(self, shard):
        STEPS.append(("quarantine", shard))
        self.bank.quarantine_shard(shard, reason="machine")

    @invariant()
    def degraded_iff_throttled(self):
        for shard, breaker in zip(self.bank.shards, self.bank.health.breakers):
            throttled, _padded = TRAFFIC[breaker.state.value]
            assert shard.degraded == throttled, breaker.transitions

    @invariant()
    def audit_clean(self):
        self.bank.check_invariants()


def test_the_bank_obeys_the_table():
    run_state_machine_as_test(HealthProtocolMachine, settings=SETTINGS)


def without_throttle_sync(monkeypatch):
    """Plant the mutant: ``health_access`` minus its post-feed sync."""
    source = textwrap.dedent(inspect.getsource(sharded.health_access))
    sync = (
        "    if state.throttled != shard.degraded:\n"
        "        shard.set_degraded(state.throttled)\n"
    )
    assert sync in source
    namespace = {}
    exec(source.replace(sync, ""), vars(sharded), namespace)
    monkeypatch.setattr(sharded, "health_access", namespace["health_access"])


def pad_only_quarantined(monkeypatch):
    """Plant the wrong table: probing shards unpadded."""
    monkeypatch.setattr(HealthState.PROBING, "padded", False)


@pytest.mark.parametrize("plant", [pad_only_quarantined, without_throttle_sync])
def test_a_planted_bug_is_caught_and_shrinks(monkeypatch, plant):
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(HealthProtocolMachine, settings=SETTINGS)
    # the last example hypothesis ran is the shrunk one it reports
    assert 0 < len(STEPS) <= 10, STEPS
