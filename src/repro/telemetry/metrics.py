"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The :class:`MetricsRegistry` is the common sink every layer reports
through, in the process that observes: the sweep runtime (cell counts,
cache hits, retries, per-cell wall-time distribution, summed hot-path
work counters), the epoch trace recorder (record counts,
prediction-error distribution) and the decision service.
:meth:`MetricsRegistry.to_dict` is the JSON snapshot that ``/metrics``
serves and :func:`~repro.obs.prom.render_prometheus` renders. Updates
are plain int/float and list index arithmetic, safe to bump on hot
paths.

Registries also merge (counters add, histogram buckets add, gauges keep
the maximum) and round-trip through :meth:`MetricsRegistry.from_dict`,
but no process ships or merges one today: sweep workers return results,
and the sweep counts into the parent's registry.

Histograms use *fixed* bucket bounds, declared at first use; asking for
a declared histogram with other bounds, or merging two histograms with
different bounds, is a programming error and raises.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Default histogram bounds for dimensionless ratios (e.g. relative
#: prediction error): fine near zero, coarse above 1.
RATIO_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)

#: Default histogram bounds for wall-clock seconds.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)

#: Default histogram bounds for small batch sizes (the decision
#: service's micro-batches): powers of two up to its default batch cap.
BATCH_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass
class Counter:
    """Monotonically increasing count; merge adds."""

    value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Gauge:
    """Last-observed value; merge keeps the maximum.

    Max-merge makes the aggregate well defined when several workers
    report the same gauge (e.g. peak resident records): the fleet-wide
    reading is the worst case, not an arbitrary worker's last write.
    """

    value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum/count.

    Bucket ``i`` counts observations ``<= bounds[i]``; the final bucket
    is the overflow (``> bounds[-1]``). Quantiles are estimated by
    linear interpolation inside the winning bucket - exact enough for
    telemetry percentiles without retaining samples.
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

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0.0
        lo = 0.0
        for i, count in enumerate(self.counts):
            hi = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
            if seen + count >= target:
                if count == 0:
                    return hi
                frac = (target - seen) / count
                return lo + frac * (hi - lo)
            seen += count
            lo = hi
        return self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.sum += other.sum


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
    # Merge / serialise

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (in place)."""
        for name, c in other._counters.items():
            self.counter(name).merge(c)
        for name, g in other._gauges.items():
            self.gauge(name).merge(g)
        for name, h in other._histograms.items():
            self.histogram(name, h.bounds).merge(h)
        return self

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

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricsRegistry":
        out = cls()
        for name, value in dict(data.get("counters", {})).items():
            out.counter(name).value = value
        for name, value in dict(data.get("gauges", {})).items():
            out.gauge(name).set(value)
        for name, spec in dict(data.get("histograms", {})).items():
            h = out.histogram(name, spec["bounds"])
            h.counts = [int(c) for c in spec["counts"]]
            h.total = int(spec["total"])
            h.sum = float(spec["sum"])
        return out


def merge_all(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Merge many registries into a fresh one (workers -> parent)."""
    out = MetricsRegistry()
    for r in registries:
        out.merge(r)
    return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_all",
    "BATCH_BUCKETS",
    "RATIO_BUCKETS",
    "SECONDS_BUCKETS",
]
