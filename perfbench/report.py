"""Run results: the human-readable report and the final JSON line."""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.spec import END_TO_END, PER_LAYER, frac
from perfbench.tracer import Profile


@dataclass
class RunResult:
    """What one benchmark run measured and checked."""

    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    #: failed correctness checks (empty = correct)
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: workload-specific figures printed for people, not gated
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def units(self) -> Dict[str, str]:
        """The gated metrics of this pass, with their units."""
        return PER_LAYER if self.trace else END_TO_END

    def add_latencies(self, values: Dict[str, float]) -> None:
        """File latency percentiles (ms) as gated metrics where this pass
        gates them, and as printed extras otherwise."""
        for name, value in values.items():
            if name in self.units:
                self.metrics[name] = value
            else:
                self.extras[name] = (value, "ms")

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def final_line(self) -> str:
        units = self.units
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise KeyError(f"{self.workload} did not measure {missing}")
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name]}
                for name in units
            },
        })

    def render(self) -> str:
        lines = [f"workload {self.workload} "
                 f"({'traced per-layer pass' if self.trace else 'end to end'})"]
        for name, unit in self.units.items():
            if name in self.metrics:
                lines.append(f"  {name:32s} {self.metrics[name]:14.6g} {unit}")
        for name, (value, unit) in self.extras.items():
            lines.append(f"  ({name:30s} {value:14.6g} {unit})")
        lines.append(f"  attempted {self.attempted}, failed {self.failed}, "
                     f"error_rate {frac(self.failed, self.attempted):.6g}")
        for problem in self.problems:
            lines.append(f"  CHECK FAILED: {problem}")
        return "\n".join(lines)


def peak_rss_mib() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mib(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, in MiB (None if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def zero_layer_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0: the value where a layer does not run."""
    return {name: 0.0 for name in PER_LAYER}


def layer_metrics(
    profile: Profile,
    sessions: int,
    user_bytes_written: int,
    medium_bytes_written: int,
) -> Dict[str, float]:
    """Per-layer metrics of a traced pass.

    Fractions are shares of the summed workload-op wall; ``*_per_op``
    divides by workload ops; ``thin.commit.count`` and
    ``dummywrite.noise_blocks`` are per device session (*sessions* = the
    trace replays, fleet devices or daemon devices the pass traced).
    """
    wall = profile.op_wall_s
    ops = profile.ops
    self_s, entries, blocks = profile.self_s, profile.entries, profile.blocks
    calls, single = profile.calls, profile.single_block
    emmc_rw = calls["EMMCDevice.read_blocks"] + calls["EMMCDevice.write_blocks"]
    out = {
        f"{layer}.self_frac": frac(self_s[layer], wall)
        for layer in ("engine", "ext4", "crypt", "crypto", "thin",
                      "thin.commit", "dummywrite", "emmc", "store")
    }
    out.update({
        "ext4.calls_per_op": frac(entries["ext4"], ops),
        "crypt.blocks_per_call": frac(blocks["crypt"], entries["crypt"]),
        "crypto.us_per_block": frac(self_s["crypto"], blocks["crypto"]) * 1e6,
        "thin.calls_per_op": frac(entries["thin"], ops),
        "thin.commit.count": frac(calls["ThinPool.commit"], sessions),
        "dummywrite.noise_blocks": frac(calls["ThinPool.append_noise"],
                                        sessions),
        "emmc.calls_per_op": frac(emmc_rw, ops),
        "emmc.blocks_per_call": frac(blocks["emmc"], emmc_rw),
        "emmc.single_block_frac": frac(
            single["EMMCDevice.read_blocks"]
            + single["EMMCDevice.write_blocks"], emmc_rw),
        "emmc.flushes_per_op": frac(calls["EMMCDevice.flush"], ops),
        "emmc.write_amp": frac(medium_bytes_written, user_bytes_written),
    })
    return out


def check_self_times(result: RunResult, profile: Profile) -> None:
    """Layer self times must add up to the traced op wall."""
    total = sum(profile.self_s.values())
    result.check(
        profile.ops > 0
        and abs(total - profile.op_wall_s) <= 1e-6 * max(profile.op_wall_s, 1),
        f"layer self times sum to {total!r} s, op wall is "
        f"{profile.op_wall_s!r} s",
    )
