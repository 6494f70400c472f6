"""Exporters: versioned JSON payloads and human-readable renderings.

Everything a :class:`~repro.obs.recorder.Recorder` collected can be turned
into (a) a machine-readable, schema-versioned dict for the bench
telemetry's ``BENCH_<experiment>.json`` files, or (b) text tables / span
trees for the ``repro trace`` and ``repro metrics`` CLI commands.
:class:`PayloadAccumulator` folds per-device payloads into a fleet's
merged section, one payload at a time, for
:func:`repro.obs.stream.reduce_spools`.

Payloads are deterministic by construction: they contain only sim-clock
timestamps and seeded measurements, never wall-clock time, so regenerating
a bench JSON with the same seed is byte-identical (which is what lets CI
fail on uncommitted drift in ``benchmarks/results/``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional

from repro.errors import ObsError
from repro.obs.metrics import Histogram
from repro.obs.recorder import Recorder, SpanRecord
from repro.util import render_table

#: Version of the BENCH_*.json schema. Bump on incompatible layout changes.
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def recorder_payload(recorder: Recorder) -> Dict[str, object]:
    """Everything the recorder collected, as a JSON-serializable dict."""
    by_op: Dict[str, int] = {}
    for event in recorder.io_events:
        by_op[event.op] = by_op.get(event.op, 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "spans": recorder.span_aggregates(),
        "marks": recorder.mark_counts(),
        "metrics": recorder.metrics.as_dict(),
        "io": {"events": len(recorder.io_events), "by_op": by_op},
    }


def bench_payload(
    experiment: str,
    results: Dict[str, object],
    recorder: Recorder,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A full ``BENCH_<experiment>.json`` payload."""
    payload = recorder_payload(recorder)
    payload["experiment"] = experiment
    payload["results"] = results
    if extra:
        payload.update(extra)
    return payload


class PayloadAccumulator:
    """Incremental merge of per-device :func:`recorder_payload` dicts.

    The streaming reducer's core: :meth:`add` folds one device's payload
    at a time, so merging N devices needs memory proportional to the
    metric-name universe (plus one float per device per gauge for the
    ``gauges_per_device`` section), never to N full payloads. It is the
    one fold of fleet telemetry, driven by
    :func:`repro.obs.stream.reduce_spools`.

    Counters, marks, I/O tallies and span counts/totals are summed;
    span/histogram means are recomputed from the merged sums; each
    serialized histogram is rebuilt into a
    :class:`~repro.obs.metrics.Histogram` and folded with
    :meth:`~repro.obs.metrics.Histogram.merge`, so merged percentiles use
    the same interpolation as every device's own; gauges
    (point-in-time values such as bitmap occupancy) are averaged across
    the devices that reported them, with per-device values preserved in
    ``gauges_per_device``.
    """

    def __init__(self) -> None:
        self._spans: Dict[str, Dict[str, float]] = {}
        self._marks: Dict[str, int] = {}
        self._counters: Dict[str, float] = {}
        self._gauge_values: Dict[str, List[float]] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._io_events = 0
        self._io_by_op: Dict[str, int] = {}
        self._added = 0

    def add(self, payload: Dict[str, object]) -> None:
        """Fold one device's payload; refuses cross-schema merges."""
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ObsError(
                f"payload {self._added} has schema_version {version!r}, "
                f"expected {SCHEMA_VERSION}; refusing to merge across "
                "schema versions"
            )
        for name, agg in payload.get("spans", {}).items():
            out = self._spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            out["count"] += agg["count"]
            out["total_s"] += agg["total_s"]
            out["max_s"] = max(out["max_s"], agg["max_s"])
        for name, hits in payload.get("marks", {}).items():
            self._marks[name] = self._marks.get(name, 0) + hits
        metrics = payload.get("metrics", {})
        for name, value in metrics.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0.0) + value
        for name, value in metrics.get("gauges", {}).items():
            self._gauge_values.setdefault(name, []).append(value)
        for name, hist in metrics.get("histograms", {}).items():
            shard = Histogram.from_dict(name, hist)
            if name in self._histograms:
                self._histograms[name].merge(shard)
            else:
                self._histograms[name] = shard
        io = payload.get("io", {})
        self._io_events += io.get("events", 0)
        for op, n in io.get("by_op", {}).items():
            self._io_by_op[op] = self._io_by_op.get(op, 0) + n
        self._added += 1

    def result(self) -> Dict[str, object]:
        """The merged aggregate payload (same shape every device emits)."""
        spans = {
            name: dict(agg) for name, agg in self._spans.items()
        }
        for agg in spans.values():
            agg["mean_s"] = (
                agg["total_s"] / agg["count"] if agg["count"] else 0.0
            )
        return {
            "schema_version": SCHEMA_VERSION,
            "merged_from": self._added,
            "spans": spans,
            "marks": dict(self._marks),
            "metrics": {
                "counters": dict(sorted(self._counters.items())),
                "gauges": {
                    name: sum(values) / len(values)
                    for name, values in sorted(self._gauge_values.items())
                },
                "gauges_per_device": {
                    name: list(values)
                    for name, values in sorted(self._gauge_values.items())
                },
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in sorted(self._histograms.items())
                },
            },
            "io": {"events": self._io_events, "by_op": dict(self._io_by_op)},
        }


def dump_json(payload: Dict[str, object]) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_bench_json(
    directory, experiment: str, payload: Dict[str, object]
) -> pathlib.Path:
    """Write ``BENCH_<experiment>.json`` under *directory*; return the path."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{experiment}.json"
    path.write_text(dump_json(payload))
    return path


# ---------------------------------------------------------------------------
# Human-readable renderings
# ---------------------------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_span_tree(
    recorder: Recorder, max_children: int = 12
) -> str:
    """The span forest with sim-clock durations, one line per span."""
    if not recorder.spans:
        return "(no spans recorded)"
    lines: List[str] = []

    def emit(span: SpanRecord) -> None:
        indent = "  " * span.depth
        lines.append(
            f"{indent}{span.name}  [{_fmt_s(span.duration)}"
            f" @ t={span.start:.4f}]"
        )
        children = recorder.children_of(span)
        for child in children[:max_children]:
            emit(child)
        if len(children) > max_children:
            lines.append(
                "  " * (span.depth + 1)
                + f"... and {len(children) - max_children} more children"
            )

    for root in recorder.roots():
        emit(root)
    return "\n".join(lines)


def render_span_aggregates(recorder: Recorder) -> str:
    aggregates = recorder.span_aggregates()
    if not aggregates:
        return "(no spans recorded)"
    rows = [
        [
            name,
            str(int(agg["count"])),
            _fmt_s(agg["total_s"]),
            _fmt_s(agg["mean_s"]),
            _fmt_s(agg["max_s"]),
        ]
        for name, agg in sorted(aggregates.items())
    ]
    return render_table(["span", "count", "total", "mean", "max"], rows)


def render_metrics(recorder: Recorder) -> str:
    """Counters, gauges, histograms and marks as stacked text tables."""
    sections: List[str] = []
    metrics = recorder.metrics
    if metrics.counters:
        rows = [
            [name, f"{c.value:g}"]
            for name, c in sorted(metrics.counters.items())
        ]
        sections.append("Counters\n" + render_table(["counter", "value"], rows))
    if metrics.gauges:
        rows = [
            [name, f"{g.value:.4f}"]
            for name, g in sorted(metrics.gauges.items())
        ]
        sections.append("Gauges\n" + render_table(["gauge", "value"], rows))
    if metrics.histograms:
        rows = [
            [
                name,
                str(h.count),
                _fmt_s(h.mean),
                _fmt_s(h.p50),
                _fmt_s(h.p95),
                _fmt_s(h.p99),
                _fmt_s(h.maximum),
            ]
            for name, h in sorted(metrics.histograms.items())
        ]
        sections.append(
            "Latency histograms\n"
            + render_table(
                ["histogram", "n", "mean", "p50", "p95", "p99", "max"], rows
            )
        )
        # Raw bucket counts: p50/p95/p99 above are interpolated inside
        # these buckets, so flat-bucket artifacts (every observation in
        # one bucket) are only diagnosable with the counts visible.
        bucket_rows = [
            [
                name,
                " ".join(
                    f"{label}:{n}"
                    for label, n in h.bucket_counts().items()
                ),
            ]
            for name, h in sorted(metrics.histograms.items())
        ]
        sections.append(
            "Histogram buckets (upper bound in seconds : count)\n"
            + render_table(["histogram", "buckets"], bucket_rows)
        )
    marks = recorder.mark_counts()
    if marks:
        rows = [[name, str(count)] for name, count in sorted(marks.items())]
        sections.append("Marks\n" + render_table(["mark", "hits"], rows))
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
