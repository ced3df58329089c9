"""Fault injection and self-healing recovery for the ORAM stack.

The paper's secure processors assume *untrusted* external memory; this
package supplies (a) a deterministic adversary/environment that makes that
memory misbehave -- bit-flips, stale-bucket replay, transient read
failures, delayed responses -- and (b) the resilient access path that
survives it: retry with deterministic backoff, checkpoint restore with
write-journal replay, a post-recovery consistency audit (``fsck``), and
graceful degradation under stash pressure.

Entry points:

* :class:`FaultConfig` / :class:`FaultInjector` -- the fault source
  (:mod:`repro.faults.injector`);
* :class:`ResilientKVStore` -- the self-healing store, and the ladder
  constants and rungs the timing backends share with it
  (:mod:`repro.faults.resilient`);
* :func:`run_fsck` / :func:`run_fsck_bank` / :func:`assert_consistent` --
  the invariant auditor (:mod:`repro.faults.fsck`), covering every
  ``ORAMScheme`` implementation and sharded banks.
"""

from repro.faults.chaos import (
    ChaosEvent,
    ChaosReport,
    ChaosScenario,
    chaos_policy,
    run_chaos,
)
from repro.faults.fsck import (
    FsckError,
    FsckReport,
    assert_consistent,
    run_fsck,
    run_fsck_bank,
)
from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    FaultStats,
    TransientReadError,
)
from repro.faults.resilient import (
    RecoveryError,
    RecoveryStats,
    ResilientKVStore,
)

__all__ = [
    "ChaosEvent",
    "ChaosReport",
    "ChaosScenario",
    "chaos_policy",
    "run_chaos",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "TransientReadError",
    "FsckError",
    "FsckReport",
    "assert_consistent",
    "run_fsck",
    "run_fsck_bank",
    "RecoveryError",
    "RecoveryStats",
    "ResilientKVStore",
]
