"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The :class:`MetricsRegistry` holds the decision service's metrics: the
service's own counts, and those of the span tracer and drift monitor
that ``repro serve`` hands it. Nothing else keeps one: a sweep, a
``repro check`` pass and the epoch trace recorder read their counts
off the records they keep.
:meth:`MetricsRegistry.to_dict` is the JSON snapshot that ``/metrics``
serves and :func:`~repro.obs.prom.render_prometheus` renders. Updates
are plain int/float and list index arithmetic, safe to bump on hot
paths.

Histograms use *fixed* bucket bounds, declared at first use; asking for
a declared histogram with other bounds is a programming error and
raises.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Default histogram bounds for dimensionless ratios (e.g. relative
#: prediction error): fine near zero, coarse above 1.
RATIO_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """Last-observed value."""

    value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum/count.

    Bucket ``i`` counts observations ``<= bounds[i]``; the final bucket
    is the overflow (``> bounds[-1]``).
    """

    def __init__(self, bounds: Sequence[float] = RATIO_BUCKETS) -> None:
        if not bounds or sorted(bounds) != list(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value


class MetricsRegistry:
    """Named metrics with create-on-first-use accessors."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Accessors

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, bounds: Sequence[float] = RATIO_BUCKETS
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(bounds)
        elif h.bounds != tuple(float(b) for b in bounds):
            raise ValueError(f"histogram {name!r} already declared with other bounds")
        return h

    def inc(self, name: str, n: float = 1) -> None:
        self.counter(name).inc(n)

    # ------------------------------------------------------------------
    # Introspection

    def counter_values(self, prefix: str = "") -> Dict[str, float]:
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    # ------------------------------------------------------------------
    # Serialise

    def to_dict(self) -> Dict[str, object]:
        """JSON-encodable snapshot of every metric."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "sum": h.sum,
                }
                for k, h in sorted(self._histograms.items())
            },
        }


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RATIO_BUCKETS",
]
