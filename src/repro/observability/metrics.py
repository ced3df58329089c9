"""Counters, gauges, and cycle-bucketed histograms behind one registry.

Components count in cheap inline shapes -- the ``BackendStats`` and
``SchemeStats`` dataclasses, bare attributes named by a ``COUNTERS`` tuple
on :class:`~repro.oram.path_oram.PathORAM` and its neighbours, the recovery
ladder's ``RecoveryStats`` -- and hand plain ``{name: count}`` snapshots
to :meth:`MetricsRegistry.absorb`.  The :class:`MetricsRegistry` gives all
of them one sink with four first-class instrument kinds:

* :class:`Counter` -- monotonically increasing event count;
* :class:`Gauge` -- last-written value (watermarks, rates, occupancy);
* :class:`CycleHistogram` -- power-of-two bucketed latency distribution,
  the shape per-access cycle counts naturally take (one path access is
  ~1348 cycles; a PosMap-missing access is a small multiple of that);
* :class:`Timer` -- host wall-clock seconds and calls of a shimmed
  function: the one instrument that measures the simulator itself rather
  than the simulated machine.

Everything is plain Python and allocation-free on the update paths, so
metrics can be refreshed after a run (or periodically during one) without
perturbing the simulation.  Rendering and ``to_dict`` output are sorted by
name, which keeps exports deterministic for a fixed run.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from time import perf_counter
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

Number = Union[int, float]


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a Gauge")
        self.value += amount

    def set(self, value: int) -> None:
        """Snapshot-style update (collectors copy externally-owned totals)."""
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot decrease ({self.value} -> {value})"
            )
        self.value = value


class Gauge:
    """A point-in-time value: watermarks, occupancy, rates."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class CycleHistogram:
    """Power-of-two bucketed histogram for cycle-valued samples.

    Bucket ``i`` counts samples with ``2**(i-1) < value <= 2**i`` (bucket 0
    counts zeros and ones).  Powers of two fit latency data over many
    orders of magnitude in a handful of integers and need no configuration,
    which keeps recording one ``bit_length`` plus one list index.
    """

    __slots__ = ("name", "counts", "total", "sum")

    kind = "histogram"

    #: enough buckets for samples up to 2**47 cycles (~2 days at 1 GHz)
    NUM_BUCKETS = 48

    def __init__(self, name: str):
        self.name = name
        self.counts: List[int] = [0] * self.NUM_BUCKETS
        self.total = 0
        self.sum = 0

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError("cycle samples are non-negative")
        index = (value - 1).bit_length() if value > 1 else 0
        if index >= self.NUM_BUCKETS:
            index = self.NUM_BUCKETS - 1
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    def fold(
        self,
        samples: Sequence[int],
        lo: int = 0,
        hi: Optional[int] = None,
        base: int = 0,
    ) -> None:
        """Add ``samples[lo:hi]``, each less ``base``, as :meth:`record`
        one sample at a time would.

        The run must be sorted ascending: a bucket's count is then the
        distance between two bisections, so a fold makes O(buckets) calls
        however many samples it adds.  ``base`` lets a caller pack a key
        above the value (``(key << shift) + value``) and fold one key's
        slice of a single sorted list.
        """
        if hi is None:
            hi = len(samples)
        if lo >= hi:
            return
        if samples[lo] < base:
            raise ValueError("cycle samples are non-negative")
        counts = self.counts
        top = self.NUM_BUCKETS - 1
        start = lo
        for index in range(top):
            if start == hi:
                break
            end = bisect_right(samples, base + (1 << index), start, hi)
            counts[index] += end - start
            start = end
        counts[top] += hi - start
        self.total += hi - lo
        self.sum += sum(islice(samples, lo, hi)) - base * (hi - lo)

    def merge(self, other: "CycleHistogram") -> None:
        """Add every sample *other* holds."""
        counts = self.counts
        for index, count in enumerate(other.counts):
            counts[index] += count
        self.total += other.total
        self.sum += other.sum

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> int:
        """Upper bound of the bucket holding the ``q``-quantile sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0
        rank = q * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return 1 << index
        return 1 << (self.NUM_BUCKETS - 1)

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """(bucket upper bound, count) pairs for populated buckets."""
        return [
            (1 << index, count)
            for index, count in enumerate(self.counts)
            if count
        ]


class Timer:
    """Host wall-clock time and call count accumulated around a callable.

    :meth:`wrap` returns the callable shimmed to add each call's duration
    (raising calls included).  The shim costs roughly a microsecond per
    call, so timed runs are slower than bare ones: read shares off a timed
    run, never throughput against an untimed one (``make perf`` measures
    bare runs with quartiles).
    """

    __slots__ = ("name", "calls", "seconds")

    kind = "timer"

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.seconds = 0.0

    @property
    def value(self) -> float:
        return self.seconds

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
                self.calls += 1

        return timed


Instrument = Union[Counter, Gauge, CycleHistogram, Timer]


class MetricsRegistry:
    """Create-or-get factory and export surface for named instruments.

    Names are dot-separated paths (``backend.demand_requests``,
    ``oram.stash.max_occupancy``); the renderer groups on the first
    segment.  Asking for an existing name with a different instrument kind
    is an error -- it means two components disagree about a metric.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------- factories
    def _get(self, name: str, factory) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> CycleHistogram:
        return self._get(name, CycleHistogram)  # type: ignore[return-value]

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)  # type: ignore[return-value]

    # --------------------------------------------------------------- queries
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def value(self, name: str, default: Number = 0) -> Number:
        """Scalar value of a counter/gauge (histograms report their mean)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, CycleHistogram):
            return instrument.mean
        return instrument.value

    # ----------------------------------------------------------------- intake
    def absorb(self, other, prefix: str = "") -> "MetricsRegistry":
        """Take on *other*'s live values under ``prefix + name``; returns self.

        *other* is a plain ``{name: count}`` mapping -- a component's
        counter snapshot, registered as counters -- or an iterable of
        instruments (another registry, or a selection of one): gauges and
        counters take the live value, histograms the buckets.  Create-or-
        get, so absorbing again refreshes the same instruments.
        """
        if isinstance(other, Mapping):
            for name, value in other.items():
                self.counter(prefix + name).set(value)
            return self
        for instrument in other:
            name = prefix + instrument.name
            if isinstance(instrument, CycleHistogram):
                target = self.histogram(name)
                target.counts = list(instrument.counts)
                target.total = instrument.total
                target.sum = instrument.sum
            elif instrument.kind == "gauge":
                self.gauge(name).set(instrument.value)
            else:
                self.counter(name).set(instrument.value)
        return self

    # --------------------------------------------------------------- exports
    def to_dict(self) -> Dict[str, Dict]:
        """Deterministic JSON-ready snapshot, sorted by metric name."""
        out: Dict[str, Dict] = {}
        for instrument in self:
            if isinstance(instrument, CycleHistogram):
                out[instrument.name] = {
                    "kind": instrument.kind,
                    "total": instrument.total,
                    "sum": instrument.sum,
                    "buckets": instrument.nonzero_buckets(),
                }
            elif isinstance(instrument, Timer):
                out[instrument.name] = {
                    "kind": instrument.kind,
                    "calls": instrument.calls,
                    "seconds": instrument.seconds,
                }
            else:
                out[instrument.name] = {
                    "kind": instrument.kind,
                    "value": instrument.value,
                }
        return out

    def render(self, title: str = "metrics") -> str:
        """Human-readable report, grouped by the leading name segment."""
        lines = [f"{title}:"]
        current_group = None
        for instrument in self:
            group = instrument.name.split(".", 1)[0]
            if group != current_group:
                lines.append(f"  [{group}]")
                current_group = group
            if isinstance(instrument, CycleHistogram):
                lines.append(
                    f"    {instrument.name:<38} n={instrument.total:>10,}  "
                    f"mean={instrument.mean:>12,.1f}  "
                    f"p50<={instrument.quantile(0.5):,}  "
                    f"p99<={instrument.quantile(0.99):,}"
                )
            elif isinstance(instrument, Timer):
                lines.append(
                    f"    {instrument.name:<38} {instrument.seconds:>12.3f} s"
                    f"  {instrument.calls:>10,} calls"
                )
            elif isinstance(instrument.value, float):
                lines.append(f"    {instrument.name:<38} {instrument.value:>14.4f}")
            else:
                lines.append(f"    {instrument.name:<38} {instrument.value:>14,}")
        return "\n".join(lines)
