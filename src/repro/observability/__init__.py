"""Structured tracing and metrics for the PrORAM simulator.

The subsystem has four parts (see DESIGN.md section 8):

* **Spans** (:mod:`.spans`) -- the per-access record schema: one span per
  trip through the access pipeline, carrying cycle timestamps, per-phase
  attribution, stash occupancy, super-block merge/break counts, and
  fault/retry outcomes.
* **Recorders** (:mod:`.recorder`) -- span sinks.  ``None`` /
  :class:`NullRecorder` is the zero-cost disabled state (the golden
  ``SimResult`` is bit-identical); :class:`InMemoryRecorder` backs tests
  and CLI reports; :class:`JsonlTraceRecorder` writes deterministic
  one-object-per-line trace files.
* **Metrics** (:mod:`.metrics`, :mod:`.collect`) -- counters, gauges,
  cycle-bucketed histograms and host wall-clock timers in a
  :class:`MetricsRegistry`, populated by snapshot collectors that replace
  the ad-hoc stats dicts (and by :func:`time_system` for the host-time
  profile of a run).
* **Uniformity** (:mod:`.uniformity`) -- a live leaf-histogram
  chi-squared monitor built on :mod:`repro.security.statistics`.
"""

from .collect import (
    collect_controllers,
    collect_parallel,
    collect_serve,
    collect_system,
    collect_trace,
    render_profile,
    time_system,
)
from .metrics import Counter, CycleHistogram, Gauge, MetricsRegistry, Timer
from .recorder import (
    InMemoryRecorder,
    JsonlTraceRecorder,
    NullRecorder,
    TraceRecorder,
    attach_recorder,
    read_jsonl_trace,
)
from .spans import SPAN_FIELDS, Span, is_span
from .uniformity import LeafUniformityMonitor, UniformityCheck

__all__ = [
    "Counter",
    "CycleHistogram",
    "Gauge",
    "InMemoryRecorder",
    "JsonlTraceRecorder",
    "LeafUniformityMonitor",
    "MetricsRegistry",
    "NullRecorder",
    "SPAN_FIELDS",
    "Span",
    "Timer",
    "TraceRecorder",
    "UniformityCheck",
    "attach_recorder",
    "collect_controllers",
    "collect_parallel",
    "collect_serve",
    "collect_system",
    "collect_trace",
    "is_span",
    "read_jsonl_trace",
    "render_profile",
    "time_system",
]
