"""The fleet workload: ``run_fleet`` over a process pool with spooled telemetry.

Each *round* is one ``run_fleet`` call: ``DEVICES`` mc-p ``mixed_daily``
devices across ``PROCESSES`` workers, every worker streaming a
``telemetry.v1`` spool that ``reduce_spools`` folds afterwards. Rounds
repeat until the next would overrun ``--seconds``.

The fleet runs its devices inside worker processes, so the benchmark
reaches in from its own files: before the pool starts it swaps
``repro.workload.fleet.run_device_streamed`` for :func:`probed_device`
and ``repro.workload.runner.build_workload_stack`` for a timed wrapper,
and installs a :class:`~perfbench.tracer.Tracer` (roots only when
untraced, every layer when traced). Forked workers inherit all of it;
each returns its device's set-up time, op durations, peak RSS and (when
traced) layer profile alongside the summary ``run_fleet`` already
returns. ``reduce_spools`` is timed the same way, in the parent.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import shutil
import statistics
import time
from typing import Dict, List, Optional

from repro.workload import fleet as fleet_mod
from repro.workload import runner as runner_mod
from repro.workload.fleet import FleetSpec

from perfbench import inputs
from perfbench.report import (
    RunResult,
    check_self_times,
    layer_metrics,
    proc_hwm_mib,
    zero_layer_metrics,
)
from perfbench.spec import MAX_MEASURE_S, latency_metrics
from perfbench.tracer import OP_FAILURES, Profile, Tracer

DEVICES = 12
PROCESSES = 2
#: ops per device, think ops included
OPS = 300
HEADROOM = 8


class _Probe:
    """Worker-side measurement state, inherited by forked workers."""

    def __init__(self, tracer: Tracer, traced: bool,
                 span_dir: Optional[pathlib.Path]) -> None:
        self.tracer = tracer
        self.traced = traced
        self.span_dir = span_dir
        self.setup_s: List[float] = []


#: The probe of the fleet currently running (set only inside :func:`probed`).
_ACTIVE: Optional[_Probe] = None
_REAL_DEVICE = runner_mod.run_device_streamed
_REAL_BUILD = runner_mod.build_workload_stack


def _timed_build(*args, **kwargs):
    start = time.perf_counter()
    stack = _REAL_BUILD(*args, **kwargs)
    _ACTIVE.setup_s.append(time.perf_counter() - start)
    return stack


def probed_device(spec, stream_dir, **kwargs) -> Dict[str, object]:
    """``run_device_streamed`` plus the worker-side measurements."""
    probe = _ACTIVE
    probe.tracer.reset()
    probe.setup_s.clear()
    summary = _REAL_DEVICE(spec, stream_dir, **kwargs)
    profile = probe.tracer.profile()
    if probe.traced:
        probe.tracer.dump(probe.span_dir / f"spans-fleet-dev{spec.index}.npz")
    summary["probe"] = {
        "setup_s": list(probe.setup_s),
        "profile": profile.as_dict(),
        "rss_mib": proc_hwm_mib(os.getpid()),
    }
    return summary


@contextlib.contextmanager
def probed(traced: bool, span_dir: Optional[pathlib.Path]):
    """Patch the fleet's worker and reducer entry points for one round."""
    global _ACTIVE
    tracer = Tracer(layers=traced, absorb=OP_FAILURES)
    reduce_times: List[float] = []
    real_reduce = fleet_mod.reduce_spools

    def timed_reduce(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real_reduce(*args, **kwargs)
        finally:
            reduce_times.append(time.perf_counter() - start)

    _ACTIVE = _Probe(tracer, traced, span_dir)
    patches = ((fleet_mod, "run_device_streamed", probed_device),
               (runner_mod, "build_workload_stack", _timed_build),
               (fleet_mod, "reduce_spools", timed_reduce))
    for module, name, value in patches:
        setattr(module, name, value)
    tracer.install()
    try:
        yield reduce_times
    finally:
        tracer.uninstall()
        fleet_mod.run_device_streamed = _REAL_DEVICE
        runner_mod.build_workload_stack = _REAL_BUILD
        fleet_mod.reduce_spools = real_reduce
        _ACTIVE = None


def fleet_spec(seed: int, userdata_blocks: int) -> FleetSpec:
    return FleetSpec(devices=DEVICES, setting="mc-p",
                     personality="mixed_daily", ops=OPS,
                     base_seed=seed * DEVICES,
                     userdata_blocks=userdata_blocks, processes=PROCESSES)


def expected_devices(seed: int) -> List[inputs.Shadow]:
    """Each device's shadow model, from its trace recorded in RAM."""
    return [inputs.record_trace("mixed_daily", OPS, seed * DEVICES + i)[1]
            for i in range(DEVICES)]


class _Round:
    def __init__(self, payload, wall_s: float, reduce_s: float,
                 spool_bytes: int) -> None:
        self.payload = payload
        self.wall_s = wall_s
        self.reduce_s = reduce_s
        self.spool_bytes = spool_bytes
        self.devices = payload["devices"]


def run_round(spec: FleetSpec, stream_dir: pathlib.Path, traced: bool,
              span_dir: Optional[pathlib.Path]) -> _Round:
    shutil.rmtree(stream_dir, ignore_errors=True)
    with probed(traced, span_dir) as reduce_times:
        start = time.perf_counter()
        payload = fleet_mod.run_fleet(spec, stream_dir=stream_dir)
        wall_s = time.perf_counter() - start
    spool_bytes = sum(p.stat().st_size for p in stream_dir.glob("*.jsonl"))
    shutil.rmtree(stream_dir, ignore_errors=True)
    return _Round(payload, wall_s, reduce_times[0], spool_bytes)


_TOTAL_KEYS = ("ops", "bytes_written", "bytes_read", "syncs")


def check_round(result: RunResult, rnd: _Round,
                shadows: List[inputs.Shadow], reference) -> None:
    stream = rnd.payload["stream"]
    by_event = stream["by_event"]
    result.check(
        by_event.get("device_finish", 0) == DEVICES
        and stream["finished"] == DEVICES,
        f"{by_event.get('device_finish', 0)} of {DEVICES} devices emitted "
        "device_finish",
    )
    result.check(by_event.get("device_crash", 0) == 0 and not stream["crashed"],
                 f"{by_event.get('device_crash', 0)} device_crash events")
    results = [d["result"] for d in rnd.devices]
    totals = rnd.payload["totals"]
    for key in _TOTAL_KEYS:
        summed = sum(r[key] for r in results)
        result.check(totals[key] == summed,
                     f"merged total {key}={totals[key]} != device sum {summed}")
    counters = rnd.payload["obs_merged"]["metrics"]["counters"]
    written = sum(r["bytes_written"] for r in results)
    result.check(counters.get("workload.bytes_written") == written,
                 f"merged workload.bytes_written "
                 f"{counters.get('workload.bytes_written')} != {written}")
    for device, shadow in zip(rnd.devices, shadows):
        got = device["result"]["bytes_written"]
        result.check(got == shadow.bytes_written,
                     f"device {device['device']} wrote {got} bytes, its "
                     f"trace writes {shadow.bytes_written}")
    result.check(results == reference,
                 "device results differ from the first round's")


def run(seed: int, seconds: float, trace: bool,
        work_dir: pathlib.Path) -> RunResult:
    result = RunResult("fleet_mcp", trace)
    shadows = expected_devices(seed)
    peak = max(s.peak_live_bytes for s in shadows)
    spec = fleet_spec(seed, inputs.userdata_blocks(peak, HEADROOM))
    stream_dir = work_dir / "stream"
    rounds: List[_Round] = []
    spent = 0.0
    while True:
        rnd = run_round(spec, stream_dir, False, None)
        rounds.append(rnd)
        spent += rnd.wall_s
        if spent * (len(rounds) + 1) / len(rounds) > seconds \
                or spent > MAX_MEASURE_S:
            break
    reference = [d["result"] for d in rounds[0].devices]
    for rnd in rounds:
        check_round(result, rnd, shadows, reference)
    profile = Profile()
    setups: List[float] = []
    for rnd in rounds:
        for device in rnd.devices:
            profile.merge(Profile.from_dict(device["probe"]["profile"]))
            setups.extend(device["probe"]["setup_s"])
    result.attempted = profile.ops
    result.failed = profile.failed
    walls = [r.wall_s for r in rounds]
    result.extras.update({
        "rounds": (len(rounds), "count"),
        "devices": (DEVICES, "count"),
        "processes": (PROCESSES, "count"),
        "userdata_mib": (spec.userdata_blocks * inputs.BLOCK / inputs.MIB,
                         "MiB"),
    })
    if not trace:
        result.metrics.update({
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(
                sum(d["probe"]["profile"]["ops"]
                    - d["probe"]["profile"]["failed"] for d in r.devices)
                / r.wall_s for r in rounds),
            "peak_rss_mib": max(d["probe"]["rss_mib"]
                                for r in rounds for d in r.devices),
        })
        result.add_latencies(latency_metrics(profile.op_samples()))
        return result

    traced = run_round(spec, stream_dir, True, work_dir)
    check_round(result, traced, shadows, reference)
    layers = Profile()
    for device in traced.devices:
        layers.merge(Profile.from_dict(device["probe"]["profile"]))
    check_self_times(result, layers)
    device_results = [d["result"] for d in traced.devices]
    device_walls = [d["wall_s"] for r in rounds for d in r.devices]
    result.metrics.update(zero_layer_metrics())
    result.metrics.update(layer_metrics(
        layers, DEVICES, sum(r["bytes_written"] for r in device_results),
        sum(r["io"]["bytes_written"] for r in device_results),
    ))
    result.metrics.update({
        "bench.trace_overhead_frac":
            traced.wall_s / statistics.median(walls) - 1.0,
        "fleet.worker_busy_frac":
            sum(device_walls) / (sum(walls) * PROCESSES),
        "fleet.device_wall_s_p50": statistics.median(device_walls),
        "fleet.reduce_s": statistics.median(r.reduce_s for r in rounds),
        "fleet.spool_bytes_per_device":
            statistics.median(r.spool_bytes for r in rounds) / DEVICES,
    })
    return result
