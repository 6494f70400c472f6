"""Tests for the fleet runner and recorder-payload merging."""

import dataclasses
import gc
import json
import pathlib
import tracemalloc

import pytest

from repro.errors import ObsError, WorkloadError
from repro.obs.export import SCHEMA_VERSION, PayloadAccumulator, dump_json
from repro.workload import (
    DeviceSpec,
    FleetSpec,
    device_specs,
    render_fleet_report,
    run_device,
    run_fleet,
)

FLEET = FleetSpec(
    devices=3, setting="mc-p", personality="mixed_daily", ops=30, base_seed=5
)


@pytest.fixture(scope="module")
def fleet_payload():
    return run_fleet(FLEET)


@pytest.fixture(scope="module")
def device_reports():
    """Standalone run_device() reports at the fleet's seeds."""
    return [run_device(spec) for spec in device_specs(FLEET)]


def _fold(payloads):
    accumulator = PayloadAccumulator()
    for payload in payloads:
        accumulator.add(payload)
    return accumulator.result()


def _seeded(summary):
    """The parts of a worker summary that are a pure function of its spec
    (the spool path and worker wall time are not)."""
    return json.dumps(
        {key: summary[key] for key in ("device", "spec", "result", "gauges")},
        sort_keys=True,
    )


def _standalone(report):
    """What a fleet summary carries of a standalone run_device() report."""
    return _seeded(dict(report, gauges=report["obs"]["metrics"]["gauges"]))


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            FleetSpec(devices=0).validate()
        with pytest.raises(WorkloadError):
            FleetSpec(processes=0).validate()
        with pytest.raises(WorkloadError):
            FleetSpec(setting="bogus").validate()

    def test_device_specs_seeds(self):
        specs = device_specs(FLEET)
        assert [s.index for s in specs] == [0, 1, 2]
        assert [s.seed for s in specs] == [5, 6, 7]
        assert all(s.personality == "mixed_daily" for s in specs)


class TestRunFleet:
    def test_serial_equals_parallel(self, fleet_payload):
        serial = run_fleet(dataclasses.replace(FLEET, processes=1))
        for key in ("totals", "obs_merged"):
            assert json.dumps(fleet_payload[key], sort_keys=True) == (
                json.dumps(serial[key], sort_keys=True)
            )
        assert [_seeded(s) for s in fleet_payload["devices"]] == (
            [_seeded(s) for s in serial["devices"]]
        )

    def test_sections_match_standalone_runs(
        self, fleet_payload, device_reports
    ):
        """Acceptance: each device summary's spec, result and gauges are
        the standalone run_device() report's at the same seed (the spooled
        obs payload is pinned by tests/test_stream.py)."""
        assert [_seeded(s) for s in fleet_payload["devices"]] == (
            [_standalone(r) for r in device_reports]
        )

    def test_totals_sum_devices(self, fleet_payload):
        totals = fleet_payload["totals"]
        results = [r["result"] for r in fleet_payload["devices"]]
        assert totals["ops"] == sum(r["ops"] for r in results)
        assert totals["bytes_written"] == sum(
            r["bytes_written"] for r in results
        )
        assert totals["elapsed_s_max"] == max(r["elapsed_s"] for r in results)

    def test_payload_shape(self, fleet_payload):
        assert fleet_payload["experiment"] == "fleet"
        assert fleet_payload["params"]["devices"] == 3
        assert fleet_payload["obs_merged"]["merged_from"] == 3
        assert fleet_payload["stream"]["finished"] == 3

    def test_temporary_stream_dir_is_removed(self, fleet_payload):
        assert fleet_payload["stream"]["dir"] is None
        for summary in fleet_payload["devices"]:
            assert not pathlib.Path(summary["spool"]).parent.exists()

    def test_render(self, fleet_payload):
        text = render_fleet_report(fleet_payload)
        assert "Fleet: 3 x mc-p" in text
        assert "all" in text

    def test_single_device_fleet(self):
        payload = run_fleet(FleetSpec(devices=1, ops=20, base_seed=2))
        solo = run_device(DeviceSpec(index=0, ops=20, seed=2))
        assert _seeded(payload["devices"][0]) == _standalone(solo)


class TestStreamedFleet:
    @pytest.fixture(scope="class")
    def streamed(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fleet-spools")
        small = dataclasses.replace(FLEET, ops=15, userdata_blocks=1024)
        return small, directory, run_fleet(small, stream_dir=directory)

    def test_streamed_merge_matches_in_ram_merge(self, streamed):
        """Acceptance: the spool-reduced observability section is
        byte-identical to folding the standalone run_device() payloads."""
        small, _directory, payload = streamed
        reports = [run_device(spec) for spec in device_specs(small)]
        assert dump_json(payload["obs_merged"]) == (
            dump_json(_fold([r["obs"] for r in reports]))
        )

    def test_stream_section(self, streamed):
        small, directory, payload = streamed
        section = payload["stream"]
        assert section["dir"] == str(directory)
        assert section["finished"] == small.devices
        assert section["crashed"] == 0
        assert section["by_event"]["device_finish"] == small.devices
        assert len(list(directory.glob("spool-*.jsonl"))) == small.devices

    def test_summaries_not_full_reports(self, streamed):
        # the streamed payload carries light summaries; the full recorder
        # payloads live only in the spools
        _small, _directory, payload = streamed
        for summary in payload["devices"]:
            assert "obs" not in summary
            assert summary["crashed"] is False
            assert summary["gauges"]
        assert "Fleet:" in render_fleet_report(payload)

    def test_stale_spools_are_refused(self, tmp_path):
        """A smaller fleet into a directory a larger one used must not
        merge the larger fleet's leftover spools into its stats."""
        spec = FleetSpec(devices=3, ops=4, userdata_blocks=1024,
                         processes=1)
        run_fleet(spec, stream_dir=tmp_path)
        with pytest.raises(ObsError, match="already holds 3 spool"):
            run_fleet(dataclasses.replace(spec, devices=2),
                      stream_dir=tmp_path)


def _synthetic_payload(i):
    """A hand-built recorder payload shaped like real device telemetry.

    Gauges are deliberately absent: they are the one metric family whose
    merged output keeps per-device values, so omitting them makes the
    merge's working set provably independent of the payload count.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "spans": {
            "stack.write": {
                "count": 2 + i % 3,
                "total_s": 0.25 + (i % 7) * 0.01,
                "max_s": 0.2,
                "mean_s": 0.125,
            }
        },
        "marks": {"gc.pass": 1 + i % 2},
        "metrics": {
            "counters": {"workload.bytes_written": 4096.0 * (1 + i % 5)},
            "gauges": {},
            "histograms": {
                "io.write_s": {
                    "count": 4,
                    "mean_s": 0.002,
                    "min_s": 0.0005,
                    "max_s": 0.005,
                    "p50_s": 0.001,
                    "p95_s": 0.0046,
                    "p99_s": 0.00492,
                    "buckets": {"0.001": 2, "0.01": 2},
                }
            },
        },
        "io": {"events": 10, "by_op": {"write": 8, "flush": 2}},
    }


class TestMergeScale:
    """PayloadAccumulator at 1k payloads: associativity, bounded memory,
    pinned percentile output."""

    N = 1000

    @pytest.fixture(scope="class")
    def payloads(self):
        return [_synthetic_payload(i) for i in range(self.N)]

    def test_associative_regrouping(self, payloads):
        from repro.bench.history import flatten_numeric

        whole = _fold(payloads)
        halves = _fold(
            [
                _fold(payloads[: self.N // 2]),
                _fold(payloads[self.N // 2:]),
            ]
        )
        a = flatten_numeric({k: v for k, v in whole.items()
                             if k != "merged_from"})
        b = flatten_numeric({k: v for k, v in halves.items()
                             if k != "merged_from"})
        assert set(a) == set(b)
        for name, value in a.items():
            assert b[name] == pytest.approx(value, rel=1e-12), name

    def test_reversal_invariance(self, payloads):
        from repro.bench.history import flatten_numeric

        forward = flatten_numeric(_fold(payloads))
        backward = flatten_numeric(_fold(list(reversed(payloads))))
        assert set(forward) == set(backward)
        for name, value in forward.items():
            assert backward[name] == pytest.approx(value, rel=1e-12), name

    def test_pinned_merged_percentiles(self, payloads):
        merged = _fold(payloads)
        hist = merged["metrics"]["histograms"]["io.write_s"]
        assert hist["count"] == 4 * self.N
        assert hist["buckets"] == {"0.001": 2 * self.N, "0.01": 2 * self.N}
        # Histogram.percentile interpolates from the bucket's lower bound
        # (0.005 for the 0.01 bucket) and clamps to min/max: p50 sits at
        # the top of the first bucket, p95/p99 clamp to the observed max
        assert hist["p50_s"] == pytest.approx(0.001)
        assert hist["p95_s"] == pytest.approx(0.005)
        assert hist["p99_s"] == pytest.approx(0.005)
        assert hist["min_s"] == 0.0005
        assert hist["max_s"] == 0.005

    def test_peak_memory_independent_of_payload_count(self, payloads):
        """100x more payloads must not cost meaningfully more peak memory:
        the accumulator's working set is the metric-name universe."""

        def peak(batch):
            gc.collect()
            tracemalloc.start()
            _fold(batch)
            _current, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak_bytes

        peak(payloads[:10])  # warm caches so both measurements are steady
        small = peak(payloads[:10])
        large = peak(payloads)
        assert large <= max(small, 64 * 1024) * 3, (small, large)


class TestMergeRecorderPayloads:
    def test_merges_device_observations(self, device_reports):
        devices = [r["obs"] for r in device_reports]
        merged = _fold(devices)
        # counters sum
        for name, value in merged["metrics"]["counters"].items():
            assert value == pytest.approx(sum(
                d["metrics"]["counters"].get(name, 0) for d in devices
            ))
        # io events sum
        assert merged["io"]["events"] == sum(
            d["io"]["events"] for d in devices
        )
        # gauges average over the devices that reported them
        for name, value in merged["metrics"]["gauges"].items():
            reported = [
                d["metrics"]["gauges"][name] for d in devices
                if name in d["metrics"]["gauges"]
            ]
            assert value == pytest.approx(sum(reported) / len(reported))
        # histogram counts sum, percentile bounds stay within min/max
        for name, hist in merged["metrics"]["histograms"].items():
            assert hist["count"] == sum(
                d["metrics"]["histograms"][name]["count"] for d in devices
                if name in d["metrics"]["histograms"]
            )
            assert hist["min_s"] <= hist["p50_s"] <= hist["max_s"]
            assert hist["min_s"] <= hist["p99_s"] <= hist["max_s"]

    def test_span_means_recomputed(self, device_reports):
        merged = _fold([r["obs"] for r in device_reports])
        for agg in merged["spans"].values():
            assert agg["mean_s"] == pytest.approx(
                agg["total_s"] / agg["count"]
            )
            assert agg["max_s"] <= agg["total_s"] + 1e-12

    def test_empty_merge(self):
        merged = _fold([])
        assert merged["merged_from"] == 0
        assert merged["spans"] == {}
        assert merged["io"]["events"] == 0

    def test_single_payload_histograms_round_trip(self):
        """Folding one device's payload returns its histograms unchanged:
        the fold interpolates percentiles exactly as the device did."""
        obs = run_device(DeviceSpec(ops=60, seed=3))["obs"]
        merged = _fold([obs])
        assert dump_json(merged["metrics"]["histograms"]) == (
            dump_json(obs["metrics"]["histograms"])
        )

    def test_unknown_bucket_label_raises(self):
        payload = _synthetic_payload(0)
        payload["metrics"]["histograms"]["io.write_s"]["buckets"] = {
            "0.003": 4
        }
        with pytest.raises(ObsError, match="unknown bucket label '0.003'"):
            _fold([payload])
