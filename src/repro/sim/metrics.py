"""Metrics primitives used by experiments and benchmarks.

A :class:`MetricsRegistry` holds named counters, gauges, histograms and
time series; every subsystem reports into one so that experiment drivers
can print the rows the paper reports (request counts, server counts,
precision figures, message counts per architecture edge, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a Gauge instead")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can move up and down (queue depth, active subs, ...)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming histogram retaining all observations.

    Observation counts in this repository are small enough (tens of
    thousands) that retaining raw samples is simpler and exact.  The
    aggregate accessors used by experiment reporting loops are O(1):
    ``total``/``mean``/``minimum``/``maximum`` are maintained as running
    values on :meth:`observe`, and :meth:`percentile` sorts once and
    reuses the cached ordering until the next observation.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._ordered: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self._samples.append(value)
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._ordered = None

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` observations of the same ``value`` at once.

        The vectorized form of :meth:`observe` for fan-out loops (every
        subscriber of one event shares the hop count and e2e delay):
        one extend + one running-aggregate update instead of ``count``
        method calls.  Statistically identical to calling ``observe``
        ``count`` times.
        """
        if count <= 0:
            return
        value = float(value)
        self._samples.extend([value] * count)
        self._total += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._ordered = None

    @property
    def count(self) -> int:
        """Number of observations; O(1) (list length, never a scan)."""
        return len(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / len(self._samples) if self._samples else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._samples else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._samples else 0.0

    @property
    def stddev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mean = self.mean
        variance = sum((s - mean) ** 2 for s in self._samples) / (len(self._samples) - 1)
        return math.sqrt(variance)

    def percentile(self, q: float) -> float:
        """Return the q-th percentile (0 <= q <= 100) by linear interpolation.

        Raises :class:`ValueError` on an empty histogram — a percentile of
        nothing is undefined, and silently returning 0.0 used to mask
        never-populated histograms in experiment reports.  Guard with
        :attr:`count` when a metric may legitimately be empty.
        """
        if not self._samples:
            raise ValueError(
                f"percentile() of empty histogram {self.name!r}; "
                "check .count before asking for percentiles"
            )
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if self._ordered is None:
            self._ordered = sorted(self._samples)
        ordered = self._ordered
        if len(ordered) == 1:
            return ordered[0]
        position = (q / 100) * (len(ordered) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return ordered[lower]
        below, above = ordered[lower], ordered[upper]
        # Clamped: rounding must never take a percentile outside the two
        # samples it lies between (and so outside [minimum, maximum]).
        value = below + (above - below) * (position - lower)
        return min(max(value, below), above)

    def samples(self) -> Tuple[float, ...]:
        return tuple(self._samples)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3f})"


@dataclass
class TimeSeries:
    """(time, value) pairs, e.g. active subscriptions over simulated days."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.points and time < self.points[-1][0]:
            raise ValueError("time series must be recorded in time order")
        self.points.append((time, value))

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def times(self) -> List[float]:
        return [time for time, _ in self.points]

    def last(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None


class MetricsRegistry:
    """Named collection of metrics shared by a simulation run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram(name))

    def series(self, name: str) -> TimeSeries:
        return self._series.setdefault(name, TimeSeries(name))

    def counters(self) -> Dict[str, float]:
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        return {name: gauge.value for name, gauge in sorted(self._gauges.items())}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Structured plain-dict export of every metric.

        The single source the exporters (:mod:`repro.obs.export`) and
        experiment reports consume::

            {"counters":   {name: value},
             "gauges":     {name: value},
             "histograms": {name: {count, total, mean, min, max,
                                   p50, p95, p99}},
             "series":     {name: {points, last}}}

        Percentile aggregates are 0.0 for empty histograms (the
        :meth:`Histogram.percentile` accessor itself raises there).
        """
        histograms: Dict[str, Dict[str, float]] = {}
        for name, histogram in sorted(self._histograms.items()):
            aggregate = {
                "count": float(histogram.count),
                "total": histogram.total,
                "mean": histogram.mean,
                "min": histogram.minimum,
                "max": histogram.maximum,
            }
            if histogram.count:
                for q in (50, 95, 99):
                    aggregate[f"p{q}"] = histogram.percentile(q)
            else:
                aggregate.update({"p50": 0.0, "p95": 0.0, "p99": 0.0})
            histograms[name] = aggregate
        series = {
            name: {"points": len(ts.points), "last": ts.last()}
            for name, ts in sorted(self._series.items())
        }
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": histograms,
            "series": series,
        }

    def names(self) -> Iterable[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms
        yield from self._series
