"""Tests for the mergeable metric sketches (repro.obs.sketch).

The load-bearing property battery: sketch merges must be associative and
commutative down to **byte-identical serialization**, so the fleet
reducer's shard-merge order is unobservable in the output.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs.metrics import Histogram
from repro.obs.sketch import (
    DEFAULT_ALPHA,
    MIN_TRACKED,
    MetricSnapshot,
    QuantileSketch,
    median,
)
from repro.obs.metrics import MetricRegistry

#: Positive magnitudes spanning the sketch's tracked range, plus the
#: zero-bucket corner (values below MIN_TRACKED).
values_strategy = st.lists(
    st.one_of(
        st.floats(min_value=1e-8, max_value=1e8, allow_nan=False),
        st.just(0.0),
        st.floats(min_value=0.0, max_value=MIN_TRACKED / 2),
    ),
    max_size=60,
)


def _sketch(values, alpha=DEFAULT_ALPHA):
    sketch = QuantileSketch(alpha=alpha)
    for value in values:
        sketch.observe(value)
    return sketch


def _canon(sketch):
    return json.dumps(sketch.to_dict(), sort_keys=True)


class TestQuantileSketchMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=values_strategy, b=values_strategy)
    def test_commutative_to_the_byte(self, a, b):
        ab = _sketch(a).merge(_sketch(b))
        ba = _sketch(b).merge(_sketch(a))
        assert _canon(ab) == _canon(ba)

    @settings(max_examples=60, deadline=None)
    @given(a=values_strategy, b=values_strategy, c=values_strategy)
    def test_associative_to_the_byte(self, a, b, c):
        left = _sketch(a).merge(_sketch(b)).merge(_sketch(c))
        right = _sketch(a).merge(_sketch(b).merge(_sketch(c)))
        assert _canon(left) == _canon(right)

    @settings(max_examples=60, deadline=None)
    @given(values=values_strategy, data=st.data())
    def test_any_partition_any_order_is_unobservable(self, values, data):
        """Splitting the stream into shards and merging them in any order
        serializes byte-identically to observing everything in one sketch
        — the fleet's shard-order-unobservability guarantee."""
        whole = _sketch(values)
        if values:
            cuts = sorted(
                data.draw(
                    st.lists(
                        st.integers(0, len(values)), min_size=0, max_size=3
                    )
                )
            )
        else:
            cuts = []
        shards = []
        previous = 0
        for cut in cuts + [len(values)]:
            shards.append(values[previous:cut])
            previous = cut
        order = data.draw(st.permutations(range(len(shards))))
        merged = QuantileSketch()
        for i in order:
            merged.merge(_sketch(shards[i]))
        assert _canon(merged) == _canon(whole)

    @settings(max_examples=60, deadline=None)
    @given(values=values_strategy)
    def test_roundtrip_serialization(self, values):
        sketch = _sketch(values)
        assert _canon(QuantileSketch.from_dict(sketch.to_dict())) == (
            _canon(sketch)
        )


class TestQuantileSketchAccuracy:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        q=st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
    )
    def test_relative_error_within_alpha(self, values, q):
        sketch = _sketch(values)
        ordered = sorted(values)
        exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) <= sketch.alpha * exact + 1e-12

    def test_mean_is_exact(self):
        values = [0.1, 0.2, 0.3, 1e-12, 7.25]
        sketch = _sketch(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values))
        assert sketch.minimum == min(values)
        assert sketch.maximum == max(values)

    def test_zero_bucket(self):
        sketch = _sketch([0.0, 1e-12, 5.0])
        assert sketch.zero_count == 2
        assert sketch.count == 3
        assert sketch.quantile(0.5) == sketch.minimum == 0.0

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.p50 == 0.0
        assert sketch.mean == 0.0
        assert sketch.summary()["p99"] == 0.0

    def test_rejects_negative_values_and_bad_alpha(self):
        with pytest.raises(ObsError):
            QuantileSketch().observe(-1.0)
        with pytest.raises(ObsError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ObsError):
            QuantileSketch().quantile(0.0)

    def test_rejects_mixed_accuracy_merge(self):
        with pytest.raises(ObsError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))

    def test_memory_is_bounded(self):
        """The whole point: bucket count is capped by the tracked range,
        not by how many values stream through."""
        sketch = QuantileSketch()
        for i in range(10_000):
            sketch.observe((i % 977 + 1) * 1e-3)
        assert len(sketch._buckets) <= sketch._hi - sketch._lo + 1
        assert sketch.count == 10_000


hist_values = st.lists(
    st.floats(min_value=1e-7, max_value=20.0, allow_nan=False), max_size=50
)


def _hist(values, name="h"):
    hist = Histogram(name)
    for value in values:
        hist.observe(value)
    return hist


class TestHistogramMerge:
    """The live Histogram.merge used by in-process shard folding."""

    @settings(max_examples=40, deadline=None)
    @given(a=hist_values, b=hist_values)
    def test_merge_equals_observing_everything(self, a, b):
        merged = _hist(a).merge(_hist(b))
        whole = _hist(a + b)
        assert merged._counts == whole._counts
        assert merged.count == whole.count
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
        assert merged.total == pytest.approx(whole.total)
        assert merged.p95 == pytest.approx(whole.p95)

    def test_merge_in_place_returns_self(self):
        target = _hist([0.1, 0.2])
        assert target.merge(_hist([0.3])) is target
        assert target.count == 3

    def test_bound_mismatch_raises(self):
        with pytest.raises(ValueError):
            Histogram("a").merge(Histogram("b", bounds=(1.0,)))


class TestMetricSnapshot:
    def test_capture_and_delta(self):
        registry = MetricRegistry()
        registry.counter("ops").add(5)
        registry.gauge("occ").set(0.25)
        first = MetricSnapshot.capture(registry)
        assert first.counters == {"ops": 5.0}
        assert first.gauges == {"occ": 0.25}
        assert first.delta(None) == {"ops": 5.0}
        registry.counter("ops").add(2)
        registry.counter("bytes").add(100)
        second = MetricSnapshot.capture(registry)
        assert second.delta(first) == {"bytes": 100.0, "ops": 2.0}
        # unchanged counters are omitted from deltas
        third = MetricSnapshot.capture(registry)
        assert third.delta(second) == {}


class TestMedian:
    def test_median(self):
        assert median([]) == 0.0
        assert median([3.0]) == 3.0
        assert median([5.0, 1.0, 3.0]) == 3.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
