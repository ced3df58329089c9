"""Measuring the layers from outside: boundary shims and a call counter.

Nothing under ``src/`` knows about either.  :class:`Tracer` replaces each
boundary function of :data:`spec.BOUNDARIES` on its class with a timing
shim *before* the system under test is built (``ORAMBackend.__init__`` and
``SecureSystem.run`` cache bound methods, so a later patch would be
missed) and records one span per call.  :class:`CallCounter` is a
``sys.setprofile`` hook counting ``call`` and ``c_call`` events per source
file -- the machine-independent host-cost currency.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import spec

# Span record layout (a list, filled in place at exit).
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder around the boundary functions.

    A span is ``[name_index, start, end, parent_span_index, op_id]``.  The
    op id is the ordinal of the latest call to ``op_boundary`` (the
    function that begins one op of the workload: a trace entry entering
    the cache, a request entering a tenant queue, a replayed request
    entering the bank); spans before the first op carry ``-1``.
    """

    def __init__(self, op_boundary: str):
        self.names: List[str] = list(spec.span_layers())
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = -1
        self._op_boundary = op_boundary
        self._patched: List[Tuple[object, str, object, bool]] = []
        self._self_times: List[float] = []

    # ---------------------------------------------------------------- shims
    def _shim(self, fn, name_index: int, starts_op: bool):
        spans = self.spans
        stack = self._stack

        def shim(*args, **kwargs):
            if starts_op:
                self._op += 1
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        shim.__wrapped__ = fn
        return shim

    def __enter__(self) -> "Tracer":
        for layer, entries in spec.BOUNDARIES.items():
            for module_name, owner_name, attr in entries:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                name = f"{layer}.{attr}"
                own = attr in vars(owner)
                original = getattr(owner, attr)
                shim = self._shim(
                    original, self.names.index(name), name == self._op_boundary
                )
                setattr(owner, attr, shim)
                self._patched.append((owner, attr, original, own))
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:  # inherited (e.g. PathORAM.drain_stash from a mixin)
                delattr(owner, attr)
        self._patched.clear()

    # ----------------------------------------------------------- aggregation
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the part child spans cover."""
        spans = self.spans
        if len(self._self_times) != len(spans):  # computed once per finished trace
            own = [span[END] - span[START] for span in spans]
            for span in spans:
                if span[PARENT] >= 0:
                    own[span[PARENT]] -= span[END] - span[START]
            self._self_times = own
        return self._self_times

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """span name -> (calls, self seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[NAME]] += 1
            self_s[span[NAME]] += own
        return {
            name: (calls[index], self_s[index])
            for index, name in enumerate(self.names)
        }

    def by_layer(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds), summed over its boundaries."""
        totals = {layer: [0, 0.0] for layer in spec.LAYERS}
        layer_of = spec.span_layers()
        for name, (calls, self_s) in self.by_name().items():
            totals[layer_of[name]][0] += calls
            totals[layer_of[name]][1] += self_s
        return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}

    def nesting_errors(self) -> List[str]:
        """Spans that escape their parent or have negative self time."""
        errors: List[str] = []
        spans = self.spans
        for index, (span, own) in enumerate(zip(spans, self.self_times())):
            if span[END] < span[START]:
                errors.append(f"span {index} ends before it starts")
            if own < -1e-9:
                errors.append(f"span {index} has negative self time {own}")
            parent = span[PARENT]
            if parent >= 0 and not (
                spans[parent][START] <= span[START] and span[END] <= spans[parent][END]
            ):
                errors.append(f"span {index} escapes its parent {parent}")
        return errors

    def write_jsonl(self, path, workload: str, max_ops: int = 256) -> int:
        """Write the spans of the first ``max_ops`` ops; returns the count."""
        own = self.self_times()
        base = self.spans[0][START] if self.spans else 0.0
        written = 0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                if span[OP] >= max_ops:
                    continue
                record = {
                    "workload": workload,
                    "span": index,
                    "name": self.names[span[NAME]],
                    "start_s": span[START] - base,
                    "end_s": span[END] - base,
                    "self_s": own[index],
                    "parent": span[PARENT],
                    "op": span[OP],
                }
                handle.write(json.dumps(record) + "\n")
                written += 1
        return written


class CallCounter:
    """Count Python and C calls per source file under ``sys.setprofile``."""

    def __init__(self, src_root: str):
        self._src_root = src_root.rstrip("/") + "/"
        self._py: Dict[object, int] = {}
        self._c: Dict[object, int] = {}

    def __enter__(self) -> "CallCounter":
        py = self._py
        c = self._c

        def hook(frame, event, _arg):
            # A Python call is keyed by the callee's code object, a C call
            # by the code object of the frame that made it (a builtin has
            # no source path of its own).
            if event == "call":
                code = frame.f_code
                py[code] = py.get(code, 0) + 1
            elif event == "c_call":
                code = frame.f_code
                c[code] = c.get(code, 0) + 1

        sys.setprofile(hook)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)
        # The hook saw this __exit__ being called and calling setprofile.
        self._py.pop(CallCounter.__exit__.__code__, None)
        self._c.pop(CallCounter.__exit__.__code__, None)

    @property
    def total(self) -> int:
        return sum(self._py.values()) + sum(self._c.values())

    def _layer_of(self, filename: str) -> Optional[str]:
        if not filename.startswith(self._src_root):
            return None
        relative = filename[len(self._src_root):]
        best: Optional[Tuple[int, str]] = None
        for prefix, layer in spec.PATH_LAYERS:
            if relative.startswith(prefix) and (best is None or len(prefix) > best[0]):
                best = (len(prefix), layer)
        return best[1] if best else None

    def by_layer(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in spec.LAYERS}
        for counts in (self._py, self._c):
            for code, count in counts.items():
                layer = self._layer_of(code.co_filename)
                if layer is not None:
                    totals[layer] += count
        return totals
