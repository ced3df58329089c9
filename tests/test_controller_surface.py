"""Surface guard: the timing controller reads no private state.

``repro.controller`` and ``repro.memory`` drive the ORAM, the super block
policy and each other through public names only -- the access pipeline
reads ``fault_delay()``, ``stash_soft_limit`` / ``relieve_stash()``,
``oram.pending_leaf`` and the policy's ``llc_contains`` / ``listener``,
the bank reads ``shard.degraded``.  An ``_``-prefixed attribute may be
touched on ``self`` / ``cls`` (or through ``super()``) and nowhere else, so
a private read of another object cannot come back unnoticed.
``core/dynamic.py``'s handles on the position map's bit arrays are PrORAM's
own fast path and out of scope.  The same guard holds the layers above the
bank -- ``health``, ``parallel``, ``sim`` and ``observability`` -- so an
owner reaches a circuit breaker only through its public feed
(``record`` / ``record_pressure`` / ``record_hard_failure``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def private_reads(package: str):
    """``file:line expression`` of every ``_``-prefixed attribute the
    package's modules touch on an object other than ``self`` / ``cls``."""
    for path in sorted((SRC / package).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            if not node.attr.startswith("_") or node.attr.startswith("__"):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                continue
            if isinstance(owner, ast.Call) and getattr(owner.func, "id", None) == "super":
                continue
            where = path.relative_to(SRC.parent)
            yield f"{where}:{node.lineno} {ast.unparse(node)}"


def test_controller_and_memory_read_no_private_attribute_of_another_object():
    found = [hit for name in ("controller", "memory") for hit in private_reads(name)]
    assert found == []


@pytest.mark.parametrize("package", ["health", "parallel", "sim", "observability"])
def test_layers_above_read_no_private_attribute_of_another_object(package):
    """The bank, the runtime, the tile and the collectors reach a breaker,
    a worker or a shard through its public names only -- the breaker
    through its one feed."""
    assert list(private_reads(package)) == []
