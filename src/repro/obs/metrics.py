"""Metric primitives: counters, gauges and fixed-bucket latency histograms.

The registry is deliberately simulation-friendly: metrics never draw
randomness and never touch a clock, so enabling observability cannot
perturb a seeded experiment. Histograms use fixed log-spaced buckets (the
Prometheus model) so percentile queries are O(buckets) and the memory cost
of a run is independent of how many latencies were observed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, Optional, Tuple

#: Default latency buckets in seconds: 1-2-5 decades from 1 µs to 10 s.
#: Wide enough for everything the stack models, from a single eMMC read
#: (~100 µs) to a whole-partition initialization pass (minutes land in the
#: overflow bucket, which percentile() clamps to the observed maximum).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(-6, 1) for m in (1.0, 2.0, 5.0)
) + (10.0,)


class Counter:
    """A monotonically increasing count (events, bytes, ops)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {value}")
        self.value += value

    def as_dict(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value (occupancy ratio, amplification factor)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper bucket edges; values above the last
    bound land in an implicit overflow bucket. Percentiles interpolate
    linearly within the bucket the target rank falls in and clamp to the
    observed min/max, so estimates are exact at the extremes and never
    outside the observed range.
    """

    __slots__ = (
        "name", "_bounds", "_counts", "count", "total", "_min", "_max",
    )

    def __init__(
        self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        self.name = name
        self._bounds = tuple(float(b) for b in bounds)
        if not self._bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(self._bounds, self._bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self._counts = [0] * (len(self._bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self._bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram exactly, in place.

        Both histograms must share the same bucket bounds: counts sum
        bucket by bucket (no re-bucketing, so nothing is lost), min/max
        take the extremes, and the running totals add. Returns ``self``.
        Counts, min and max merge exactly order-independently; the float
        ``total`` is a single IEEE addition per merge.
        """
        if other._bounds != self._bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                "bucket bounds differ"
            )
        for i, n in enumerate(other._counts):
            self._counts[i] += n
        self.count += other.count
        self.total += other.total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    # -- derived statistics -------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the *q*-quantile (``q`` in (0, 1]) from the buckets."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lo = self._bounds[i - 1] if i > 0 else self.minimum
                hi = self._bounds[i] if i < len(self._bounds) else self.maximum
                fraction = (target - (cumulative - bucket_count)) / bucket_count
                value = lo + fraction * (hi - lo)
                return min(max(value, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - cumulative always reaches

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def bounds(self) -> Tuple[float, ...]:
        """The inclusive upper bucket edges (without the overflow bucket)."""
        return self._bounds

    def cumulative_buckets(self) -> Tuple[Tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count_at_or_below)`` pairs.

        The Prometheus bucket model: each entry counts every observation
        less than or equal to its bound, and the final ``(inf, count)``
        entry covers the overflow bucket, so the last cumulative count
        always equals :attr:`count`. Used by the text exposition renderer.
        """
        out = []
        cumulative = 0
        for bound, bucket_count in zip(self._bounds, self._counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((math.inf, self.count))
        return tuple(out)

    def bucket_counts(self) -> Dict[str, int]:
        """Non-empty buckets keyed by upper bound (``inf`` = overflow)."""
        out: Dict[str, int] = {}
        for i, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            label = f"{self._bounds[i]:g}" if i < len(self._bounds) else "inf"
            out[label] = bucket_count
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.minimum,
            "max_s": self.maximum,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "buckets": self.bucket_counts(),
        }


class MetricRegistry:
    """Create-on-first-use registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS
            )
        return metric

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self.histograms.items())
            },
        }
