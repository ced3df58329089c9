"""Smoke tests: every example script is importable and exposes main().

The examples run multi-minute simulations at their default sizes, so the
tests exercise their *plumbing* (imports, argument handling, helper
functions) rather than full executions; the heavy paths they call are
covered by the integration tests and the benchmark suite.  The key-value
store example takes about a second and runs whole.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = load(path)
    assert callable(getattr(module, "main", None))


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "secure_processor_sim",
        "oblivious_kv_store",
        "database_oram",
        "timing_channel_demo",
    } <= names


def test_secure_processor_sim_rejects_unknown_benchmark():
    module = load(next(p for p in EXAMPLES if p.stem == "secure_processor_sim"))
    with pytest.raises(SystemExit):
        module.build_trace("not_a_benchmark", 100)


def test_secure_processor_sim_builds_known_traces():
    module = load(next(p for p in EXAMPLES if p.stem == "secure_processor_sim"))
    for name in ("ocean_c", "mcf", "YCSB"):
        trace = module.build_trace(name, 500)
        assert len(trace) >= 500 or name == "YCSB"  # YCSB rounds to operations


def test_timing_channel_demo_traces():
    module = load(next(p for p in EXAMPLES if p.stem == "timing_channel_demo"))
    hungry, idle = module.make_traces(footprint=256, horizon_refs=100)
    assert len(hungry) == len(idle) == 100
    assert hungry.total_gap_cycles < idle.total_gap_cycles


def test_oblivious_kv_store_runs(capsys):
    """The one example fast enough to run whole: its ``main()`` audits the
    store's adversary view and must still call it oblivious."""
    module = load(next(p for p in EXAMPLES if p.stem == "oblivious_kv_store"))
    module.main()
    out = capsys.readouterr().out
    assert "adversary observed 900 path accesses" in out
    assert "=> the access pattern is indistinguishable from random: oblivious." in out
