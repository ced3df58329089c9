"""A refactor must not be able to silence a benchmark row.

``benchmarks/perf/spec.py`` names the functions the benchmark shims
(``BOUNDARIES``) and the source paths it attributes calls to
(``PATH_LAYERS``).  A rename under ``src/repro`` that left either table
pointing at nothing would only surface in the ``perf-smoke`` job, after
the fact -- so tier-1 resolves every entry.  The spec is read, never
edited, from here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def load_spec():
    location = importlib.util.spec_from_file_location(
        "perf_spec", ROOT / "benchmarks" / "perf" / "spec.py"
    )
    module = importlib.util.module_from_spec(location)
    location.loader.exec_module(module)
    return module


SPEC = load_spec()
ENTRIES = [
    pytest.param(module, owner, attr, id=f"{layer}:{owner or module}.{attr}")
    for layer, entries in SPEC.BOUNDARIES.items()
    for module, owner, attr in entries
]


@pytest.mark.parametrize("module_name, owner_name, attr", ENTRIES)
def test_boundary_resolves_to_a_callable(module_name, owner_name, attr):
    """The same lookup ``tracing.Tracer.__enter__`` performs."""
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    assert callable(getattr(owner, attr))


def test_every_layer_has_a_boundary():
    assert all(SPEC.BOUNDARIES[layer] for layer in SPEC.LAYERS)


@pytest.mark.parametrize("prefix, layer", SPEC.PATH_LAYERS)
def test_path_layer_prefix_exists(prefix, layer):
    assert layer in SPEC.LAYERS
    path = SRC / prefix
    assert path.is_dir() if prefix.endswith("/") else path.is_file()
