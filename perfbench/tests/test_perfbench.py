"""The benchmark's own tests, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.blockdev.clock import SimClock
from repro.crypto.rng import Rng
from repro.fs.tmpfs import TmpFilesystem
from repro.workload.engine import replay_trace, run_personality
from repro.workload.runner import build_workload_stack
from repro.workload.trace import TraceOp

from perfbench import daemon, fleet, inputs, replay, spec
from perfbench.report import RunResult
from perfbench.tracer import OP_FAILURES, Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes about a second."""
    monkeypatch.setattr(daemon, "REQUESTS", 24)
    monkeypatch.setattr(daemon, "SNAPSHOT_EVERY", 12)
    monkeypatch.setattr(fleet, "DEVICES", 2)
    monkeypatch.setattr(fleet, "OPS", 60)
    return {
        "daily_mcp": dataclasses.replace(replay.DAILY_MCP, ops=120),
        "bulk_android": dataclasses.replace(replay.BULK_ANDROID, ops=30),
    }


def _run(name, tiny, trace, tmp_path) -> RunResult:
    if name in tiny:
        return replay.run(tiny[name], 3, 0.1, trace, tmp_path)
    if name == "daemon_rw":
        return daemon.run(3, 0.1, trace, tmp_path, ROOT / "src")
    return fleet.run(3, 0.1, trace, tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_workload_reports_every_metric_with_its_unit(name, trace, tiny,
                                                     tmp_path):
    result = _run(name, tiny, trace, tmp_path)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted > 0
    line = json.loads(result.final_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    units = spec.PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_pass_leaves_sim_outputs_unchanged(tiny):
    workload = tiny["daily_mcp"]
    data = replay.make_inputs(workload, seed=5)
    observed = replay.run_round(workload, data)
    bare = replay.run_round(workload, data, observed=False)
    tracer = Tracer()
    with tracer:
        traced = replay.run_round(workload, data)
    assert observed.fingerprint == bare.fingerprint == traced.fingerprint
    profile = tracer.profile()
    assert profile.ops == inputs.non_think_ops(data.trace)
    assert sum(profile.self_s.values()) == pytest.approx(
        profile.op_wall_s, rel=1e-9)
    assert profile.calls["ThinPool.append_noise"] > 0


def test_tracer_uninstall_restores_every_method():
    from repro.blockdev.emmc import EMMCDevice
    from repro.fs.ext4 import Ext4Filesystem

    before = (EMMCDevice.read_blocks, Ext4Filesystem.write_file,
              "read_blocks" in EMMCDevice.__dict__)
    with Tracer():
        assert EMMCDevice.read_blocks is not before[0]
    assert (EMMCDevice.read_blocks, Ext4Filesystem.write_file,
            "read_blocks" in EMMCDevice.__dict__) == before


def test_content_checker_rejects_a_wrong_file(tiny):
    workload = tiny["bulk_android"]
    data = replay.make_inputs(workload, seed=2)
    assert replay.run_round(workload, data, check_contents=True).problem \
        is None
    path = sorted(data.shadow.files)[0]
    data.shadow.files[path] = inputs.content_digest(b"not what was written")
    problem = replay.run_round(workload, data, check_contents=True).problem
    assert problem is not None and path in problem


def test_content_checker_rejects_a_missing_file():
    from repro.fs.tmpfs import TmpFilesystem

    fs = TmpFilesystem()
    fs.format()
    fs.mount()
    fs.write_file("/a", b"x")
    with pytest.raises(inputs.ContentMismatch):
        inputs.check_contents(fs, {"/a": inputs.content_digest(b"x"),
                                   "/b": inputs.content_digest(b"y")})


def test_root_wrapper_counts_failed_ops_and_goes_on():
    fs = TmpFilesystem()
    fs.format()
    fs.mount()
    trace = [TraceOp(at=0.0, op="write", path="/a", length=10),
             TraceOp(at=0.0, op="mkdir", path="/a/b"),  # /a is a file
             TraceOp(at=0.0, op="write", path="/c", length=5)]
    tracer = Tracer(layers=False, absorb=OP_FAILURES)
    with tracer:
        replay_trace(trace, fs, SimClock())
    profile = tracer.profile()
    assert (profile.ops, profile.failed) == (3, 1)
    assert {k: len(v) for k, v in profile.op_samples().items()} \
        == {"write": 2}
    assert fs.stat("/c").size == 5


def test_ram_recorded_trace_matches_one_recorded_on_android():
    ram, _shadow = inputs.record_trace("mixed_daily", 200, 1)
    stack = build_workload_stack("android", seed=1, userdata_blocks=8192)
    _result, android = run_personality(
        "mixed_daily", stack.fs, stack.clock,
        Rng(1).fork("workload/mixed_daily"), ops=200, content_seed=1)
    strip = lambda ops: [dataclasses.replace(op, at=0.0) for op in ops]
    assert strip(ram) == strip(android)


def test_userdata_sizing_rounds_up_to_a_power_of_two():
    mib = inputs.MIB
    assert inputs.userdata_blocks(6 * mib, 8) * inputs.BLOCK == 64 * mib
    assert inputs.userdata_blocks(1, 8) * inputs.BLOCK == 16 * mib
    assert inputs.userdata_blocks(8 * mib, 4) * inputs.BLOCK == 32 * mib
