"""The paper-figure suite must stay collectable and its tables committed.

``pytest benchmarks/`` is the paper's shape contract (EXPERIMENTS.md), but
tier-1 only runs ``tests/``: a file under ``benchmarks/`` that matches
``python_files`` and cannot be imported as ``benchmarks.<name>`` kills the
whole suite at collection without anything here noticing.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"


def test_benchmark_suite_collects():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "benchmarks"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_recorded_table_is_committed_and_none_is_orphaned():
    recorded = set()
    for bench in BENCHMARKS.glob("bench_*.py"):
        recorded.update(re.findall(r'record_table\(\s*"(\w+)"', bench.read_text()))
    committed = {path.stem for path in (BENCHMARKS / "results").glob("*.txt")}
    assert recorded == committed
