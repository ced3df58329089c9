"""Trace recorders: the sink side of the tracing subsystem.

A recorder receives span and event dicts from the access pipeline (see
:mod:`repro.observability.spans` for the schema).  Three implementations:

* :class:`NullRecorder` -- the disabled state.  Components never consult
  a recorder directly; they check ``recorder is None`` (or the
  ``enabled`` flag) before building a span, so disabled tracing costs
  one attribute read per access and the golden ``SimResult`` stays
  bit-identical.
* :class:`InMemoryRecorder` -- accumulates records in a list.  Used by
  tests, the CLI report path, and the overhead benchmark.
* :class:`JsonlTraceRecorder` -- buffers records and serializes one JSON
  object per line on :meth:`close`.  Serialization uses sorted keys and
  compact separators, so a fixed-seed run produces a byte-identical
  trace file.

Recorders are deliberately synchronous and single-threaded, matching the
simulator: there is no queue or flush thread to make runs nondeterministic.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

from .spans import Span, is_span


class TraceRecorder:
    """Interface + disabled default.  ``enabled`` gates all emission."""

    enabled = False

    def record_span(self, span: Dict[str, Any]) -> None:  # pragma: no cover
        pass

    def record_event(self, event: str, **data: Any) -> None:  # pragma: no cover
        pass

    def close(self) -> None:  # pragma: no cover
        pass


class NullRecorder(TraceRecorder):
    """Explicit no-op recorder (``TraceRecorder`` already is one)."""


class InMemoryRecorder(TraceRecorder):
    """Collects raw record dicts in memory.

    ``next_seq`` hands out the global span sequence numbers; the emitting
    pipeline stamps them so that interleaved shards share one ordering.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._seq = 0

    def next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def record_span(self, span: Dict[str, Any]) -> None:
        self.records.append(span)

    def record_event(self, event: str, **data: Any) -> None:
        record: Dict[str, Any] = {"event": event}
        record.update(data)
        self.records.append(record)

    # ---------------------------------------------------------------- queries
    def spans(self) -> Iterator[Span]:
        for record in self.records:
            if is_span(record):
                yield Span.from_record(record)

    def events(self) -> Iterator[Dict[str, Any]]:
        for record in self.records:
            if not is_span(record):
                yield record

    def span_count(self) -> int:
        return sum(1 for record in self.records if is_span(record))

    def phase_totals(self) -> Dict[str, int]:
        """Sum of per-phase cycles over all spans (+ ``fault`` delays).

        Mirrors the shape of ``AccessPipeline.phase_cycles`` so traces can
        be reconciled against ``SimResult.extra`` phase accounting.
        """
        totals: Dict[str, int] = {}
        fault = 0
        for record in self.records:
            if not is_span(record):
                continue
            for name, cycles in record["phases"].items():
                totals[name] = totals.get(name, 0) + cycles
            fault += record.get("fault_delay", 0)
        totals["fault"] = fault
        return totals


class JsonlTraceRecorder(InMemoryRecorder):
    """Writes the trace as one compact JSON object per line on close.

    Buffering until :meth:`close` keeps file I/O out of the simulated
    access path entirely -- the per-access cost is identical to
    :class:`InMemoryRecorder` -- and makes the written bytes a pure
    function of the recorded dicts.
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
                fh.write("\n")


def read_jsonl_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into record dicts."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def attach_recorder(backend, recorder: Optional[TraceRecorder]):
    """Attach ``recorder`` to a backend (single controller or sharded bank).

    Returns the recorder for chaining.  Backends without tracing support
    (plain DRAM / insecure baselines) ignore it.
    """
    backend.set_recorder(recorder)
    return recorder
