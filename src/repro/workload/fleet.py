"""Fleet runner: N independent simulated phones across a process pool.

The first scale-out axis of the reproduction: every device of a
:class:`FleetSpec` is an independent simulated phone (its own seed, clock,
stack and personality run), so the fleet is embarrassingly parallel and is
executed across a :mod:`multiprocessing` pool. Every worker streams its
device's ``telemetry.v1`` spool
(:func:`~repro.workload.runner.run_device_streamed`) and returns a small
summary; the fleet's observability section is then folded from the spools
by :func:`repro.obs.stream.reduce_spools`, in memory independent of the
number of devices.

Determinism contract: device *i* runs at seed ``base_seed + i``; its
summary's spec, result and gauges, and the observability payload in its
spool, are identical to ``run_device()`` at that seed, whether the fleet
ran serially or across processes.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import WorkloadError
from repro.obs.export import SCHEMA_VERSION
from repro.obs.stream import ensure_fresh_stream_dir, reduce_spools
from repro.util import render_table
from repro.workload.runner import (
    DEFAULT_USERDATA_BLOCKS,
    DeviceSpec,
    run_device_streamed,
)


@dataclass(frozen=True)
class FleetSpec:
    """A fleet of identical devices differing only in their seeds."""

    devices: int = 2
    setting: str = "mc-p"
    personality: str = "mixed_daily"
    ops: int = 120
    base_seed: int = 0
    userdata_blocks: int = DEFAULT_USERDATA_BLOCKS
    #: worker processes; None = min(devices, CPU count), 1 = run serially
    processes: Optional[int] = None

    def validate(self) -> None:
        if self.devices <= 0:
            raise WorkloadError(
                f"fleet needs at least one device, got {self.devices}"
            )
        if self.processes is not None and self.processes <= 0:
            raise WorkloadError(
                f"processes must be positive, got {self.processes}"
            )
        device_specs(self)[0].validate()


def device_specs(fleet: FleetSpec) -> List[DeviceSpec]:
    """The per-device specs of a fleet (device i at seed base_seed + i)."""
    return [
        DeviceSpec(
            index=i,
            setting=fleet.setting,
            personality=fleet.personality,
            ops=fleet.ops,
            seed=fleet.base_seed + i,
            userdata_blocks=fleet.userdata_blocks,
        )
        for i in range(fleet.devices)
    ]


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _map_devices(
    worker: Callable[[DeviceSpec], Dict[str, object]],
    specs: List[DeviceSpec],
    processes: Optional[int],
) -> List[Dict[str, object]]:
    """Run *worker* over every spec, pooled or serial, in device order."""
    if processes is None:
        processes = min(len(specs), os.cpu_count() or 1)
    if processes <= 1 or len(specs) == 1:
        return [worker(spec) for spec in specs]
    try:
        with _pool_context().Pool(processes=processes) as pool:
            return pool.map(worker, specs)
    except (OSError, PermissionError):
        # sandboxed environments may forbid forking worker processes;
        # the serial path produces the identical merged report
        return [worker(spec) for spec in specs]


def run_fleet(fleet: FleetSpec, stream_dir=None) -> Dict[str, object]:
    """Execute every device of *fleet* and reduce their telemetry spools.

    Devices run across a process pool (``fleet.processes`` workers; pass 1
    to force the serial path — results are identical either way). Each
    worker streams a ``telemetry.v1`` spool into *stream_dir*, which must
    hold no spools yet (:func:`~repro.obs.stream.ensure_fresh_stream_dir`
    raises :class:`~repro.errors.ObsError` otherwise); with no directory
    the spools go to a temporary one removed before returning, and
    ``stream["dir"]`` is ``None``. The returned payload carries the
    ordered per-device summaries, fleet-level totals, the merged
    observability section and the stream's event counts.
    """
    fleet.validate()
    if stream_dir is not None:
        ensure_fresh_stream_dir(stream_dir)
        return _run_streamed(fleet, stream_dir)
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as directory:
        payload = _run_streamed(fleet, directory)
    payload["stream"]["dir"] = None
    return payload


def _run_streamed(fleet: FleetSpec, stream_dir) -> Dict[str, object]:
    worker = functools.partial(run_device_streamed, stream_dir=stream_dir)
    summaries = _map_devices(worker, device_specs(fleet), fleet.processes)
    reduced = reduce_spools(stream_dir)
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": "fleet",
        "params": dataclasses.asdict(fleet),
        "devices": summaries,
        "totals": _totals(summary["result"] for summary in summaries),
        "obs_merged": reduced.merged,
        "stream": {
            "dir": str(stream_dir),
            "events": reduced.events,
            "by_event": dict(sorted(reduced.by_event.items())),
            "finished": reduced.finished,
            "crashed": reduced.crashed,
        },
    }


def _totals(results: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Fleet-level totals over per-device workload result dicts."""
    totals = {
        "ops": 0,
        "bytes_written": 0,
        "bytes_read": 0,
        "syncs": 0,
        "device_writes": 0,
        "device_bytes_written": 0,
        "elapsed_s_max": 0.0,
        "busy_s_total": 0.0,
        "write_mb_s_sum": 0.0,
    }
    for result in results:
        totals["ops"] += result["ops"]
        totals["bytes_written"] += result["bytes_written"]
        totals["bytes_read"] += result["bytes_read"]
        totals["syncs"] += result["syncs"]
        totals["device_writes"] += result["io"]["writes"]
        totals["device_bytes_written"] += result["io"]["bytes_written"]
        totals["elapsed_s_max"] = max(
            totals["elapsed_s_max"], result["elapsed_s"]
        )
        totals["busy_s_total"] += result["busy_s"]
        totals["write_mb_s_sum"] += result["write_mb_s"]
    return totals


def render_fleet_report(payload: Dict[str, object]) -> str:
    """Human-readable fleet summary (one row per device plus totals)."""
    rows = []
    for report in payload["devices"]:
        result = report["result"]
        spec = report["spec"]
        rows.append(
            [
                str(report["device"]),
                str(spec["seed"]),
                str(result["ops"]),
                f"{result['bytes_written'] / 1e6:.1f}",
                f"{result['elapsed_s']:.1f}",
                f"{result['write_mb_s']:.2f}",
            ]
        )
    totals = payload["totals"]
    rows.append(
        [
            "all",
            "-",
            str(totals["ops"]),
            f"{totals['bytes_written'] / 1e6:.1f}",
            f"{totals['elapsed_s_max']:.1f}",
            f"{totals['write_mb_s_sum']:.2f}",
        ]
    )
    params = payload["params"]
    title = (
        f"Fleet: {params['devices']} x {params['setting']} running "
        f"{params['personality']} ({params['ops']} ops/device)"
    )
    table = render_table(
        ["device", "seed", "ops", "MB written", "elapsed s", "MB/s"], rows
    )
    return title + "\n" + table
