"""Workload and metric names with their units, read from ``BENCHMARK.json``,
and the latency helpers every workload shares.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List, Sequence

_BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text()
)

WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])

#: End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END: Dict[str, str] = {
    m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]
}

#: Per-layer metrics: name -> unit. Every workload reports all of them; a
#: metric whose layer does not run on a workload reads 0 there. Which
#: end-to-end metric each should move, and on which workload, is mapped
#: in ``perfbench/README.md``.
PER_LAYER: Dict[str, str] = {
    m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]
}

#: A p95 needs this many samples of its op type in one run (ten beyond it).
P95_MIN_SAMPLES = 200

#: Hard stop for a measuring loop, well inside the 180 s a run may take.
MAX_MEASURE_S = 120.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (``0 <= q <= 1``) of *values*."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_metrics(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """``{kind}_p50_ms`` for every op kind timed, plus ``{kind}_p95_ms``
    for each kind with at least ``P95_MIN_SAMPLES`` samples."""
    out = {}
    for kind, values in sorted(samples.items()):
        if not values:
            continue
        out[f"{kind}_p50_ms"] = statistics.median(values) * 1e3
        if len(values) >= P95_MIN_SAMPLES:
            out[f"{kind}_p95_ms"] = percentile(values, 0.95) * 1e3
    return out


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
