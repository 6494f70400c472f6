"""Tests for the repro.obs observability subsystem."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.blockdev import RAMBlockDevice, SimClock
from repro.blockdev.faults import FaultPlan, PowerCutError, inject
from repro.obs.export import PayloadAccumulator
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.util.stats import summarize


class TestSpans:
    def test_nesting_and_ordering_under_sim_clock(self):
        clock = SimClock()
        with obs.observe() as rec:
            with obs.span("outer", clock=clock):
                clock.advance(1.0)
                with obs.span("inner-a", clock=clock):
                    clock.advance(2.0)
                with obs.span("inner-b", clock=clock):
                    clock.advance(3.0)
            with obs.span("second-root", clock=clock):
                clock.advance(0.5)
        outer = rec.spans_named("outer")[0]
        assert outer.start == 0.0
        assert outer.end == 6.0
        assert outer.duration == 6.0
        assert outer.parent is None and outer.depth == 0
        inner_a, inner_b = rec.children_of(outer)
        assert (inner_a.name, inner_b.name) == ("inner-a", "inner-b")
        assert inner_a.depth == inner_b.depth == 1
        assert (inner_a.start, inner_a.end) == (1.0, 3.0)
        assert (inner_b.start, inner_b.end) == (3.0, 6.0)
        assert [s.name for s in rec.roots()] == ["outer", "second-root"]

    def test_span_attrs_and_aggregates(self):
        clock = SimClock()
        with obs.observe() as rec:
            for _ in range(3):
                with obs.span("work", clock=clock, kind="unit"):
                    clock.advance(2.0)
        agg = rec.span_aggregates()["work"]
        assert agg["count"] == 3
        assert agg["total_s"] == pytest.approx(6.0)
        assert agg["mean_s"] == pytest.approx(2.0)
        assert agg["max_s"] == pytest.approx(2.0)
        assert rec.spans[0].attrs == {"kind": "unit"}

    def test_span_stack_survives_exceptions(self):
        clock = SimClock()
        with obs.observe() as rec:
            with pytest.raises(RuntimeError):
                with obs.span("outer", clock=clock):
                    with obs.span("inner", clock=clock):
                        raise RuntimeError("boom")
            with obs.span("after", clock=clock):
                pass
        after = rec.spans_named("after")[0]
        assert after.parent is None  # stack unwound cleanly

    def test_timeline_merges_all_event_kinds(self):
        clock = SimClock()
        with obs.observe() as rec:
            with obs.span("s", clock=clock):
                clock.advance(1.0)
                rec.mark("m", clock)
                clock.advance(1.0)
        kinds = [kind for _, kind, _ in rec.timeline()]
        assert kinds == ["span-begin", "mark", "span-end"]


class TestDisabled:
    def test_noop_when_disabled(self):
        assert not obs.enabled()
        assert obs.current() is None
        # none of these should raise or retain anything
        with obs.span("ignored"):
            pass
        obs.counter_add("c")
        obs.gauge_set("g", 1.0)
        obs.observe_latency("h", 0.5)
        obs.publish_io(object())
        assert obs.current() is None

    def test_span_returns_shared_null_singleton(self):
        from repro.obs.recorder import _NULL_SPAN

        assert obs.span("a") is _NULL_SPAN
        assert obs.span("b") is _NULL_SPAN

    def test_nothing_retained_outside_observe_window(self):
        with obs.observe() as rec:
            obs.counter_add("inside")
        obs.counter_add("outside")
        with obs.span("outside-span"):
            pass
        assert list(rec.metrics.counters) == ["inside"]
        assert rec.spans == []

    def test_observe_nests_and_restores_with_stack_optin(self):
        with obs.observe() as outer:
            obs.counter_add("a")
            with obs.observe(stack=True) as inner:
                obs.counter_add("b")
            assert obs.current() is outer
            obs.counter_add("c")
        assert obs.current() is None
        assert sorted(outer.metrics.counters) == ["a", "c"]
        assert list(inner.metrics.counters) == ["b"]

    def test_implicit_nesting_raises_obs_error(self):
        from repro.errors import ObsError

        with obs.observe() as outer:
            obs.counter_add("a")
            with pytest.raises(ObsError, match="stack=True"):
                with obs.observe():
                    pass  # pragma: no cover - never entered
            # the outer recorder survives a refused nested observe
            assert obs.current() is outer
            obs.counter_add("b")
        assert obs.current() is None
        assert sorted(outer.metrics.counters) == ["a", "b"]


class TestMetrics:
    def test_counter_and_gauge(self):
        c = Counter("n")
        c.add()
        c.add(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.add(-1)
        g = Gauge("g")
        g.set(0.25)
        assert g.value == 0.25

    def test_histogram_percentiles_match_summarize(self):
        # fine bounds so interpolation error is far below the tolerance
        bounds = tuple(i / 1000.0 for i in range(1, 1001))
        h = Histogram("lat", bounds)
        values = [0.0005 + 0.0009 * i for i in range(1000)]
        for v in values:
            h.observe(v)
        ref = summarize(values)
        assert h.count == ref.n
        assert h.mean == pytest.approx(ref.mean)
        assert h.minimum == ref.minimum
        assert h.maximum == ref.maximum
        # p50 bracketed by the exact sample percentile, within one bucket
        values.sort()
        exact_p50 = values[len(values) // 2]
        assert h.p50 == pytest.approx(exact_p50, abs=0.002)
        exact_p95 = values[int(len(values) * 0.95)]
        assert h.p95 == pytest.approx(exact_p95, abs=0.002)
        assert h.p50 <= h.p95 <= h.p99 <= h.maximum

    def test_histogram_percentile_clamps_to_observed_range(self):
        h = Histogram("lat")
        h.observe(0.003)
        assert h.p50 == pytest.approx(0.003)
        assert h.p99 == pytest.approx(0.003)
        assert h.minimum == h.maximum == 0.003

    def test_histogram_empty_and_bad_quantile(self):
        h = Histogram("lat")
        assert h.p50 == 0.0
        assert h.mean == 0.0
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_histogram_overflow_bucket(self):
        h = Histogram("lat", (1.0, 2.0))
        h.observe(50.0)
        assert h.bucket_counts()["inf"] == 1
        assert h.maximum == 50.0

    def test_registry_create_on_use(self):
        reg = MetricRegistry()
        assert reg.empty
        reg.counter("c").add()
        assert reg.counter("c").value == 1
        assert not reg.empty
        d = reg.as_dict()
        assert d["counters"]["c"] == 1


hist_values = st.lists(
    st.floats(min_value=1e-7, max_value=20.0, allow_nan=False), max_size=50
)


def _hist(values, name="h"):
    hist = Histogram(name)
    for value in values:
        hist.observe(value)
    return hist


class TestHistogramMerge:
    """Histogram.merge, which PayloadAccumulator folds device histograms with."""

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


class TestMarkCrashPointSpine:
    def test_mark_records_and_fires_crash_point(self):
        device = RAMBlockDevice(8)
        from repro.blockdev.faults import FaultyBlockDevice

        faulty = FaultyBlockDevice(device)
        plan = FaultPlan(seed=1, crash_point="unit.test.point")
        faulty.arm(plan)
        with obs.observe() as rec:
            with inject(plan):
                with pytest.raises(PowerCutError):
                    obs.mark("unit.test.point")
        # the mark landed on the timeline even though the cut fired
        assert rec.mark_counts() == {"unit.test.point": 1}

    def test_mark_without_recorder_still_fires_crash_point(self):
        device = RAMBlockDevice(8)
        from repro.blockdev.faults import FaultyBlockDevice

        faulty = FaultyBlockDevice(device)
        plan = FaultPlan(seed=1, crash_point="unit.test.point2")
        faulty.arm(plan)
        with inject(plan):
            with pytest.raises(PowerCutError):
                obs.mark("unit.test.point2")

    def test_instrumented_commit_marks_match_crash_registry_names(self):
        """The pool still exposes the exact crash-point names PR 1 used."""
        from repro.crypto import Rng
        from repro.dm.thin import ThinPool

        with obs.observe() as rec:
            pool = ThinPool.format(
                RAMBlockDevice(16), RAMBlockDevice(64), rng=Rng(0)
            )
            pool.create_thin(1, 32)
            pool.get_thin(1).write_block(0, b"\x01" * 4096)
            pool.commit()
        marks = rec.mark_counts()
        assert "thin.pool.commit" in marks
        assert "thin.pool.commit.done" in marks
        assert "thin.meta.area-written" in marks
        assert "thin.meta.superblock-written" in marks
        assert rec.spans_named("pool.commit")


class TestExport:
    def _recorder(self):
        clock = SimClock()
        with obs.observe() as rec:
            with obs.span("phase", clock=clock):
                clock.advance(1.5)
                obs.mark("site", clock)
            obs.counter_add("ops", 3)
            obs.gauge_set("ratio", 0.5)
            obs.observe_latency("lat", 0.002)
        return rec

    def test_json_payload_round_trips(self):
        rec = self._recorder()
        payload = obs.bench_payload("unit", {"answer": 42}, rec)
        text = obs.dump_json(payload)
        parsed = json.loads(text)
        assert parsed["schema_version"] == obs.SCHEMA_VERSION
        assert parsed["experiment"] == "unit"
        assert parsed["results"]["answer"] == 42
        assert parsed["spans"]["phase"]["count"] == 1
        assert parsed["spans"]["phase"]["total_s"] == pytest.approx(1.5)
        assert parsed["marks"]["site"] == 1
        assert parsed["metrics"]["counters"]["ops"] == 3
        assert parsed["metrics"]["histograms"]["lat"]["count"] == 1

    def test_dump_json_is_deterministic(self):
        rec = self._recorder()
        payload = obs.bench_payload("unit", {"b": 1, "a": 2}, rec)
        assert obs.dump_json(payload) == obs.dump_json(payload)
        assert obs.dump_json(payload).endswith("\n")

    def test_write_bench_json(self, tmp_path):
        rec = self._recorder()
        payload = obs.bench_payload("unit", {}, rec)
        path = obs.write_bench_json(tmp_path, "unit", payload)
        assert path.name == "BENCH_unit.json"
        assert json.loads(path.read_text())["experiment"] == "unit"

    def test_renderings(self):
        rec = self._recorder()
        tree = obs.render_span_tree(rec)
        assert "phase" in tree
        table = obs.render_span_aggregates(rec)
        assert "phase" in table
        metrics = obs.render_metrics(rec)
        for needle in ("Counters", "Gauges", "Latency histograms", "Marks"):
            assert needle in metrics

    def test_renderings_empty_recorder(self):
        with obs.observe() as rec:
            pass
        assert obs.render_span_tree(rec) == "(no spans recorded)"
        assert obs.render_metrics(rec) == "(no metrics recorded)"

    def test_render_metrics_shows_histogram_buckets(self):
        with obs.observe() as rec:
            obs.observe_latency("lat", 0.0001)
            obs.observe_latency("lat", 0.0001)
            obs.observe_latency("lat", 0.3)
        text = obs.render_metrics(rec)
        assert "Histogram buckets" in text
        hist = rec.metrics.histograms["lat"]
        for label, count in hist.bucket_counts().items():
            assert f"{label}:{count}" in text


def _fold(payloads):
    accumulator = PayloadAccumulator()
    for payload in payloads:
        accumulator.add(payload)
    return accumulator.result()


class TestMergePayloads:
    def _payload(self, counters=None, gauges=None):
        with obs.observe(stack=True) as rec:
            for name, value in (counters or {}).items():
                obs.counter_add(name, value)
            for name, value in (gauges or {}).items():
                obs.gauge_set(name, value)
        return obs.recorder_payload(rec)

    def test_merge_empty_list(self):
        merged = _fold([])
        assert merged["merged_from"] == 0
        assert merged["spans"] == {}
        assert merged["marks"] == {}
        assert merged["metrics"]["counters"] == {}
        assert merged["io"] == {"events": 0, "by_op": {}}

    def test_merge_disjoint_metric_sets(self):
        a = self._payload(counters={"only-a": 2}, gauges={"g-a": 1.0})
        b = self._payload(counters={"only-b": 5}, gauges={"g-b": 3.0})
        merged = _fold([a, b])
        assert merged["metrics"]["counters"] == {"only-a": 2, "only-b": 5}
        # each gauge averages over the devices that reported it — a gauge
        # missing from one payload must not be diluted by zeros
        assert merged["metrics"]["gauges"] == {"g-a": 1.0, "g-b": 3.0}
        assert merged["metrics"]["gauges_per_device"] == {
            "g-a": [1.0], "g-b": [3.0]
        }

    def test_merge_mismatched_schema_version_raises(self):
        from repro.errors import ObsError

        good = self._payload(counters={"n": 1})
        stale = dict(good, schema_version=obs.SCHEMA_VERSION + 1)
        with pytest.raises(ObsError, match="schema_version"):
            _fold([good, stale])
        missing = {k: v for k, v in good.items() if k != "schema_version"}
        with pytest.raises(ObsError, match="schema_version"):
            _fold([missing])


class TestGauges:
    def test_pool_gauges_and_probe(self):
        from repro.crypto import Rng
        from repro.dm.thin import ThinPool

        pool = ThinPool.format(
            RAMBlockDevice(16), RAMBlockDevice(128), rng=Rng(0)
        )
        pool.create_thin(1, 64)
        pool.create_thin(2, 64)
        thin = pool.get_thin(1)
        for i in range(8):
            thin.write_block(i, b"\x02" * 4096)
        gauges = obs.pool_deniability_gauges(pool)
        assert gauges["pde.bitmap_occupancy"] == pytest.approx(8 / 128)
        assert gauges["pde.volume_write_share.vol1"] == pytest.approx(1.0)
        assert gauges["pde.volume_write_share.vol2"] == 0.0
        assert gauges["pde.dummy_amplification"] == 0.0  # no hook installed

    def test_allocation_probe_distinguishes_allocators(self):
        sequential = obs.allocation_sequentiality_probe("sequential")
        random = obs.allocation_sequentiality_probe("random")
        assert sequential > 0.9
        assert random < 0.2

    def test_record_deniability_gauges(self):
        from repro.crypto import Rng
        from repro.dm.thin import ThinPool

        pool = ThinPool.format(
            RAMBlockDevice(16), RAMBlockDevice(64), rng=Rng(0)
        )
        pool.create_thin(1, 32)
        reg = MetricRegistry()
        obs.record_deniability_gauges(reg, pool=pool, allocation="random")
        assert "pde.bitmap_occupancy" in reg.gauges
        assert "pde.allocation_sequentiality" in reg.gauges


class TestIOStats:
    def test_as_dict_and_sub(self):
        from repro.blockdev.device import IOStats

        later = IOStats(reads=5, writes=7, bytes_read=10, bytes_written=20)
        earlier = IOStats(reads=2, writes=3, bytes_read=4, bytes_written=8)
        delta = later - earlier
        assert delta == later.delta(earlier)
        d = later.as_dict()
        assert d["reads"] == 5 and d["flushes"] == 0
        assert json.loads(json.dumps(d)) == d


class TestEmmcLatency:
    def test_emmc_feeds_latency_histograms(self):
        from repro.blockdev.emmc import EMMCDevice
        from repro.blockdev.latency import LatencyModel

        clock = SimClock()
        dev = EMMCDevice(64, clock=clock, latency=LatencyModel())
        with obs.observe() as rec:
            dev.write_block(0, b"\x01" * dev.block_size)
            dev.read_block(0)
        hists = rec.metrics.histograms
        assert hists["emmc.write"].count == 1
        assert hists["emmc.read"].count == 1
        # the recorded latency equals the simulated time the op consumed
        total = hists["emmc.write"].total + hists["emmc.read"].total
        assert total == pytest.approx(clock.now)


class TestObservabilityDoesNotPerturb:
    def test_benchmark_results_identical_with_and_without(self):
        """Same seed, with/without a recorder: identical measurements."""
        from repro.bench import run_table1
        from repro.bench.telemetry import observed_table1

        plain = run_table1(file_bytes=256 * 1024, seed=9)
        observed, payload = observed_table1(file_bytes=256 * 1024, seed=9)
        assert [
            (r.system, r.ext4_mb_s, r.encrypted_mb_s) for r in plain
        ] == [
            (r.system, r.ext4_mb_s, r.encrypted_mb_s) for r in observed
        ]
        assert payload["schema_version"] == obs.SCHEMA_VERSION
