"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Observability substrate for the whole simulator. Design constraints,
matching the rest of the library:

- **No numpy.** Histograms use fixed bucket bounds and plain lists,
  in the style of :mod:`repro.analysis.stats`.
- **Deterministic exports.** A metrics snapshot of a seeded run is a
  pure function of the simulation, so two runs with the same seed
  produce byte-identical JSON. Anything wall-clock dependent (engine
  steps/sec, time ratios) is registered as *volatile* and excluded
  from the default export.
- **Near-zero disabled overhead.** Callers never write
  ``if metrics is not None`` around hot paths: they bind an instrument
  once (via :meth:`MetricsRegistry.counter` & co. or the module-level
  null instruments) and call ``inc``/``set``/``observe`` unconditionally.
  :data:`NULL_METRICS` hands out shared no-op instruments, so a
  non-instrumented entity pays one attribute load and a no-op call.

The canonical engine stat keys (see
:func:`stats_from_metrics`) live here so
``SimulationResult.stats`` and the metrics snapshot cannot drift.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch

FORMAT = "repro-metrics"
FORMAT_VERSION = 2
# Version history:
#   1 — counters / gauges / histograms
#   2 — adds the "sketches" section (mergeable quantile sketches)

# -- shared fixed bucket sets (upper bounds, ascending; +inf implicit) -------

LATENCY_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Delivery latencies and hold times, in **simulated-time units**.

These bounds are in the model's own time scale (the unit of ``d1``,
``d2``, ``eps``, horizons — seconds of *simulated* time), never
wall-clock seconds of the host process. Wall-clock quantities are
volatile gauges, not histograms. Pick workload parameters with these
buckets in mind, or register a histogram with custom bounds (or a
:class:`~repro.obs.sketch.QuantileSketch`, which needs no bounds at
all) when latencies fall outside ``[0.01, 10.0]``.
"""

SKEW_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)
"""Observed ``|now - clock|`` samples against the ``C_eps`` envelope."""

OCCUPANCY_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)
"""Queue/buffer occupancy samples (message counts)."""

CONTENTION_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0)
"""Scheduler candidate-set sizes."""


class _NullInstrument:
    """Shared no-op counter/gauge/histogram (the disabled fast path)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def merge(self, other) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    def quantile(self, q: float) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "<NullInstrument>"


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()
NULL_SKETCH = _NullInstrument()


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A point-in-time value; ``set_max`` keeps a running maximum."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self._value = value

    def set_max(self, value: float) -> None:
        """Keep the running maximum of all values seen."""
        if value > self._value:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self._value:g}>"


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are ascending upper bounds; one implicit overflow bucket
    catches everything above the last bound, so ``len(counts) ==
    len(bounds) + 1``. Bucket ``i`` counts samples ``v`` with
    ``bounds[i-1] < v <= bounds[i]`` (le semantics).
    """

    __slots__ = ("name", "bounds", "counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, bounds: Sequence[float]):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be ascending: {bounds!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample into its bucket and the summary stats."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        Finds the bucket holding rank ``q * (count - 1)`` and
        interpolates linearly across its ``(lower, upper]`` range —
        the observed min/max stand in for the open edges (below the
        first bound, above the last), and the estimate is clamped into
        ``[min, max]``. Accuracy is bounded by the bucket width at that
        rank; prefer a :class:`~repro.obs.sketch.QuantileSketch` when
        relative error matters. 0.0 on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self._count:
            return 0.0
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        rank = q * (self._count - 1)
        cumulative = 0
        for idx, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if rank < cumulative + bucket_count:
                if idx == 0:
                    lower = min(self._min, self.bounds[0])
                else:
                    lower = self.bounds[idx - 1]
                if idx < len(self.bounds):
                    upper = self.bounds[idx]
                else:
                    upper = self._max
                if bucket_count > 1:
                    position = (rank - cumulative) / (bucket_count - 1)
                else:
                    position = 0.5
                estimate = lower + (upper - lower) * position
                return min(max(estimate, self._min), self._max)
            cumulative += bucket_count
        return self.maximum

    def to_dict(self) -> Dict[str, object]:
        """The histogram as a plain (JSON-ready) dict."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self._count,
            "sum": self._sum,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name}: n={self._count}, max={self.maximum:g}>"


class MetricsRegistry:
    """Named counters, gauges, histograms, and sketches with JSON export.

    Instruments are created on first use and shared thereafter;
    ``volatile=True`` marks an instrument as wall-clock dependent, kept
    out of the deterministic export (see module docstring).
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sketches: Dict[str, QuantileSketch] = {}
        self._volatile: set = set()

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, volatile: bool = False) -> Counter:
        """Get-or-create the named counter."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
            if volatile:
                self._volatile.add(name)
        return instrument

    def gauge(self, name: str, volatile: bool = False) -> Gauge:
        """Get-or-create the named gauge."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
            if volatile:
                self._volatile.add(name)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS,
        volatile: bool = False,
    ) -> Histogram:
        """Get-or-create the named histogram (``bounds`` used on creation)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
            if volatile:
                self._volatile.add(name)
        elif instrument.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds!r}"
            )
        return instrument

    def sketch(
        self, name: str, alpha: float = DEFAULT_ALPHA, volatile: bool = False,
    ) -> QuantileSketch:
        """Get-or-create the named quantile sketch (``alpha`` on creation)."""
        instrument = self._sketches.get(name)
        if instrument is None:
            instrument = self._sketches[name] = QuantileSketch(name, alpha)
            if volatile:
                self._volatile.add(name)
        elif abs(instrument.alpha - alpha) > 1e-12:
            raise ValueError(
                f"sketch {name!r} already registered with alpha "
                f"{instrument.alpha:g}"
            )
        return instrument

    # -- export ------------------------------------------------------------

    def snapshot(self, include_volatile: bool = False) -> Dict[str, object]:
        """The registry as a plain (JSON-ready) dict, sorted by name."""

        def keep(name: str) -> bool:
            return include_volatile or name not in self._volatile

        return {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "counters": {
                n: c.value for n, c in sorted(self._counters.items()) if keep(n)
            },
            "gauges": {
                n: g.value for n, g in sorted(self._gauges.items()) if keep(n)
            },
            "histograms": {
                n: h.to_dict()
                for n, h in sorted(self._histograms.items())
                if keep(n)
            },
            "sketches": {
                n: s.to_dict()
                for n, s in sorted(self._sketches.items())
                if keep(n)
            },
        }

    def to_json(self, include_volatile: bool = False) -> str:
        """Deterministic JSON text of :meth:`snapshot`."""
        return json.dumps(
            self.snapshot(include_volatile), sort_keys=True, indent=2
        )

    def dump(self, path: str, include_volatile: bool = False) -> None:
        """Write the JSON snapshot to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json(include_volatile))
            handle.write("\n")

    # -- merge -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (for multi-run sweeps).

        Counters add; histograms add bucket counts and combine
        count/sum/min/max (bounds must agree); sketches add bucket
        counts likewise (alpha must agree); gauges combine by
        maximum — the only order-independent choice for point-in-time
        values such as queue depths and skew maxima.
        """
        for name, counter in other._counters.items():
            self.counter(name, volatile=name in other._volatile).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name, volatile=name in other._volatile).set_max(gauge.value)
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self.histogram(
                    name, hist.bounds, volatile=name in other._volatile
                )
            if mine.bounds != hist.bounds:
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ"
                )
            for idx, count in enumerate(hist.counts):
                mine.counts[idx] += count
            mine._count += hist._count
            mine._sum += hist._sum
            mine._min = min(mine._min, hist._min)
            mine._max = max(mine._max, hist._max)
        for name, sketch in other._sketches.items():
            self.sketch(
                name, alpha=sketch.alpha, volatile=name in other._volatile
            ).merge(sketch)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry: {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms, "
            f"{len(self._sketches)} sketches>"
        )


def registry_from_snapshot(payload: Dict[str, object]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from a :meth:`~MetricsRegistry.snapshot` dict.

    The inverse of the JSON export, used to merge snapshots that crossed
    a process boundary (campaign workers return snapshots, not live
    registries). Volatility markers are not part of the export, so a
    rebuilt registry treats every instrument as deterministic — which is
    exactly right for default (volatile-excluded) snapshots.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot must be a dict, got {type(payload).__name__}")
    registry = MetricsRegistry()
    for name, value in (payload.get("counters") or {}).items():
        registry.counter(name).inc(int(value))
    for name, value in (payload.get("gauges") or {}).items():
        registry.gauge(name).set(float(value))
    for name, hist in (payload.get("histograms") or {}).items():
        instrument = registry.histogram(name, hist["bounds"])
        instrument.counts = [int(c) for c in hist["counts"]]
        instrument._count = int(hist["count"])
        instrument._sum = float(hist["sum"])
        if instrument._count:
            instrument._min = float(hist["min"])
            instrument._max = float(hist["max"])
    # version-1 snapshots carry no "sketches" section; tolerate both
    for name, sketch in (payload.get("sketches") or {}).items():
        registry._sketches[name] = QuantileSketch.from_dict(name, sketch)
    return registry


def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Fold many snapshot dicts into one merged snapshot.

    Counters and histogram buckets add; gauges combine by maximum (see
    :meth:`MetricsRegistry.merge`). The result is deterministic in the
    *multiset* of inputs — the order snapshots arrive in (e.g. worker
    completion order) does not affect the merged output, so campaigns
    aggregate byte-identically regardless of worker count.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(registry_from_snapshot(snapshot))
    return merged.snapshot()


class NullMetrics:
    """A registry that hands out shared no-op instruments.

    Passing :data:`NULL_METRICS` to the engine disables all metric
    collection (the zero-instrumentation path the overhead benchmark
    measures); callers keep the exact same code shape.
    """

    def counter(self, name: str, volatile: bool = False) -> _NullInstrument:
        """The shared no-op counter."""
        return NULL_COUNTER

    def gauge(self, name: str, volatile: bool = False) -> _NullInstrument:
        """The shared no-op gauge."""
        return NULL_GAUGE

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS,
        volatile: bool = False,
    ) -> _NullInstrument:
        """The shared no-op histogram."""
        return NULL_HISTOGRAM

    def sketch(
        self, name: str, alpha: float = DEFAULT_ALPHA, volatile: bool = False,
    ) -> _NullInstrument:
        """The shared no-op sketch."""
        return NULL_SKETCH

    def snapshot(self, include_volatile: bool = False) -> Dict[str, object]:
        """An empty (but schema-valid) snapshot."""
        return {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "sketches": {},
        }

    def to_json(self, include_volatile: bool = False) -> str:
        """JSON text of the empty snapshot."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)

    def dump(self, path: str, include_volatile: bool = False) -> None:
        """Write the empty snapshot to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def merge(self, other) -> None:
        """Discard ``other`` (collection is disabled)."""
        pass

    def __repr__(self) -> str:
        return "<NullMetrics>"


NULL_METRICS = NullMetrics()


# -- canonical engine stats --------------------------------------------------

CANONICAL_STAT_KEYS: Tuple[str, ...] = (
    "steps",
    "actions",
    "time_advances",
    "injections",
    "visible_events",
    "hidden_events",
)
"""The one canonical key set of ``SimulationResult.stats``.

Each key mirrors the engine counter ``repro.engine.<key>``; the engine
populates ``stats`` via :func:`stats_from_metrics`, so the untyped dict
and the metrics snapshot cannot drift.
"""


def stats_from_metrics(metrics) -> Dict[str, int]:
    """The canonical ``SimulationResult.stats`` dict from engine counters."""
    return {
        key: metrics.counter(f"repro.engine.{key}").value
        for key in CANONICAL_STAT_KEYS
    }
