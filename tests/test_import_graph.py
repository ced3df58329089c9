"""Import budget: scipy/numpy are loaded by the statistical audit only.

Every ``repro`` CLI process imports ``repro.security.statistics``; only
``repro audit`` / the chaos uniformity gate ever compute a p-value.  Each
case runs in a fresh interpreter so modules an earlier test loaded cannot
hide a top-level import.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HEAVY = "[m for m in ('scipy', 'numpy') if m in sys.modules]"

RUN_DYN = """
from repro import SecureSystem, locality_mix_trace
from repro.analysis.experiments import experiment_config
trace = locality_mix_trace(0.8, footprint_blocks=512, accesses=200)
result = SecureSystem.build("dyn", trace.footprint_blocks, experiment_config()).run(trace)
assert result.cycles > 0
"""


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.cli", "repro.parallel.worker", "repro.serve", "repro.health"],
)
def test_importing_loads_neither_scipy_nor_numpy(module):
    assert run_fresh(f"import {module}\nprint({HEAVY})").strip() == "[]"


def test_building_and_running_a_system_loads_neither():
    assert run_fresh(RUN_DYN + f"print({HEAVY})").strip() == "[]"


def test_run_completes_with_both_unimportable_and_the_audit_says_so():
    out = run_fresh(
        "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
        + RUN_DYN
        + "from repro.security.statistics import chi_square_uniformity\n"
        "try:\n"
        "    chi_square_uniformity(range(4096), 64)\n"
        "except ImportError:\n"
        "    print('audit needs scipy')\n"
    )
    assert out.strip() == "audit needs scipy"


def test_insufficient_data_answers_without_scipy():
    out = run_fresh(
        "from repro.security.statistics import (\n"
        "    INSUFFICIENT_DATA, chi_square_uniformity, sequences_indistinguishable,\n"
        "    windowed_uniformity)\n"
        "assert chi_square_uniformity([], 8) == INSUFFICIENT_DATA\n"
        "assert chi_square_uniformity([3, 1], 8) == INSUFFICIENT_DATA\n"
        "assert sequences_indistinguishable([1], [], 8) == INSUFFICIENT_DATA\n"
        "assert windowed_uniformity([5], 64).checks[0].p_value == 1.0\n"
        f"print({HEAVY})"
    )
    assert out.strip() == "[]"


def test_live_monitor_window_prints_the_recorded_p_values():
    """Statistic / p-value of three windows, recorded before the import
    moved inside the functions (4 significant digits are all that is ever
    printed)."""
    out = run_fresh(
        "from repro.security.statistics import windowed_uniformity\n"
        "from repro.utils.rng import DeterministicRng\n"
        "rng = DeterministicRng(11)\n"
        "leaves = [rng.random_leaf(256) for _ in range(2500)]\n"
        "windows = windowed_uniformity(leaves, 256, window=1024)\n"
        "for c in windows.checks:\n"
        "    print(c.samples, f'{c.statistic:.4g}', f'{c.p_value:.4g}')\n"
        "print(windows.render().splitlines()[1].strip())\n"
    )
    assert out.splitlines() == [
        "1024 130.2 0.4036",
        "1024 120.2 0.6515",
        "452 63.4 0.4622",
        "worst window #0: chi2=130.2 p=0.4036 over 1024 samples",
    ]


def test_audit_cli_prints_the_recorded_p_values():
    out = run_fresh(
        "from repro.cli import main\n"
        "code = main(['audit', '-w', 'locality:50', '-s', 'dyn',\n"
        "             '--accesses', '3000', '--seed', '5'])\n"
        "print('exit', code)\n"
    )
    assert out.splitlines() == [
        "2867 path accesses over 4096 leaves",
        "uniformity chi^2 p-value: 0.4883",
        "lag-1 autocorrelation:    +0.0148",
        "leaf uniformity: 1 windows of 4096 (alpha=0.0001)",
        "  worst window #0: chi2=511.3 p=0.4883 over 2867 samples",
        "  status: healthy",
        "verdict: OBLIVIOUS",
        "exit 0",
    ]
