"""Golden snapshots of three serving-tier runs (tests/data/golden_serve_*.json).

The replay contract (``tests/test_serve.py::TestBypassIdentity``) pins only
the merged ``SimResult``; these snapshots also pin *which request rode which
access*: the full report, the issued schedule, every request's disposition
and the collected ``serve.*`` / ``health.*`` instruments.  They were recorded
at the commit before the front end's per-event state became incremental, so
any bookkeeping change that alters a decision shows up as a diff here.

Regenerate (only after an *intentional* behaviour change) with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_serve_golden.py
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.config import ServeConfig, SystemConfig
from repro.health import HealthPolicy
from repro.observability import collect_serve
from repro.serve import ClosedLoopSource, OpenLoopSource, ServingFrontEnd

DATA = Path(__file__).parent / "data"


def open4_dyn_health():
    """4-shard dyn bank behind the default policies, health plane attached."""
    source = OpenLoopSource.synthetic(
        4, 120, footprint_per_tenant=256, gap_mean=700.0, locality=0.6,
        weights=[3, 2, 1, 1], seed=11,
    )
    frontend = ServingFrontEnd.build(
        "dyn", source.footprint_blocks, SystemConfig(), 4,
        health_policy=HealthPolicy(), workload="golden_open4",
    )
    return frontend, source


def closed2_quarantined():
    """2-shard closed loop; shard 0 starts quarantined (fallback lane,
    cooldown, probes, re-admission all inside the run)."""
    source = ClosedLoopSource(
        2, 3, 25, footprint_per_tenant=64, think_mean=1_500.0, seed=5
    )
    frontend = ServingFrontEnd.build(
        "dyn", source.footprint_blocks, SystemConfig(), 2,
        health_policy=HealthPolicy(), workload="golden_closed2",
    )
    frontend.bank.quarantine_shard(0)
    return frontend, source


def overload1_shed3():
    """1-shard overload shedding by queue_full, backlog and stash pressure
    (2-slot buckets keep a block or two in the stash between accesses)."""
    base = SystemConfig()
    config = dataclasses.replace(
        base, oram=dataclasses.replace(base.oram, bucket_size=2, utilization=0.5)
    )
    source = OpenLoopSource.synthetic(
        2, 300, footprint_per_tenant=256, gap_mean=250.0, weights=[2, 1], seed=21
    )
    frontend = ServingFrontEnd.build(
        "dyn", source.footprint_blocks, config, 1,
        serve_config=ServeConfig(
            queue_capacity=8, max_backlog=22, stash_shed_fraction=0.02
        ),
        workload="golden_overload1",
    )
    return frontend, source


SCENARIOS = {
    "open4_dyn_health": open4_dyn_health,
    "closed2_quarantined": closed2_quarantined,
    "overload1_shed3": overload1_shed3,
}


def snapshot(name):
    frontend, source = SCENARIOS[name]()
    report = frontend.run(source)
    frontend.bank.check_invariants()
    return {
        "report": report.as_dict(),
        "issued": frontend.issued,
        "access_completions": frontend.access_completions,
        "requests": [
            (r.req_id, r.status, r.completion_cycle, r.coalesced, r.rerouted)
            for r in frontend.all_requests
        ],
        "metrics": collect_serve(frontend).to_dict(),
    }


def render(snap):
    """One line per section: a moved section is a one-line diff."""
    rows = [
        f" {json.dumps(key)}: {json.dumps(snap[key], sort_keys=True)}"
        for key in sorted(snap)
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serve_run_matches_golden_snapshot(name):
    path = DATA / f"golden_serve_{name}.json"
    # through JSON so tuples compare as the lists the file holds
    current = json.loads(json.dumps(snapshot(name)))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.write_text(render(current))
        pytest.skip("golden snapshot regenerated")
    golden = json.loads(path.read_text())
    for section in sorted(golden):
        assert current[section] == golden[section], f"{name}: {section} moved"
    assert sorted(current) == sorted(golden)


def test_scenarios_cover_what_they_name():
    """The snapshots are only worth pinning while every mechanism fires."""
    def metric(name, key):
        golden = json.loads((DATA / f"golden_serve_{name}.json").read_text())
        return golden["metrics"][key]["value"]

    assert metric("open4_dyn_health", "serve.coalesced") > 0
    assert metric("open4_dyn_health", "serve.full_closes") > 0
    assert metric("open4_dyn_health", "serve.deadline_closes") > 0
    assert metric("closed2_quarantined", "serve.fallback_issues") > 0
    assert metric("closed2_quarantined", "health.shard0.probes") > 0
    for cause in ("queue_full", "backlog", "pressure"):
        assert metric("overload1_shed3", f"serve.shed_{cause}") > 0
