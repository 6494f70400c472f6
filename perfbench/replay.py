"""The two replay workloads: recorded traces driven closed-loop on a stack.

A run draws up to ``traces`` distinct traces from its seed and replays
them in turn, one *round* per replay, wrapping around if time is left.
Each trace is recorded just before its first round, outside the timing,
so a run records only the traces it replays. Each round
builds a fresh stack (timed as set-up), replays the whole trace through
the program's ``replay_trace`` (a think op only advances the sim clock)
under a root-only :class:`~perfbench.tracer.Tracer` that times each op
and counts the ones that raise as failed, and fingerprints the end
state: sim clock and userdata ``IOStats``, plus the userdata
``manifest_digest`` on a trace's first replay. Rounds go on
until the next would overrun ``--seconds``. Many short distinct traces,
rather than one long one, keep a run's op mix close to the personality's
average whatever the seed.

The first replay of each trace has its file tree read back through the
stack and compared with the trace's shadow model; any later replay must
end on the first one's fingerprint. Timings are pooled over all rounds.
"""

from __future__ import annotations

import contextlib
import gc
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs
from repro.blockdev.snapshot import capture
from repro.workload.engine import replay_trace
from repro.workload.runner import build_workload_stack

from perfbench import inputs
from perfbench.report import (
    RunResult,
    check_self_times,
    layer_metrics,
    peak_rss_mib,
    zero_layer_metrics,
)
from perfbench.spec import MAX_MEASURE_S, latency_metrics
from perfbench.tracer import OP_FAILURES, Profile, Tracer


@dataclass(frozen=True)
class ReplayWorkload:
    name: str
    personality: str
    setting: str
    #: length of each trace, think ops included
    ops: int
    #: distinct traces per run
    traces: int
    #: userdata = headroom x peak live bytes (see ``inputs.userdata_blocks``)
    headroom: int


DAILY_MCP = ReplayWorkload("daily_mcp", "mixed_daily", "mc-p", ops=400,
                           traces=20, headroom=8)
BULK_ANDROID = ReplayWorkload("bulk_android", "ota_update", "android",
                              ops=200, traces=60, headroom=4)

#: Traces replayed again (observed, bare, traced) in a ``--trace 1`` run.
TRACED_TRACES = 4


@dataclass
class TraceInput:
    trace: list
    shadow: inputs.Shadow
    userdata_blocks: int
    seed: int


def make_inputs(workload: ReplayWorkload, seed: int,
                ops: Optional[int] = None) -> TraceInput:
    """One trace at *seed*, its shadow model and its userdata size."""
    trace, shadow = inputs.record_trace(workload.personality,
                                        ops or workload.ops, seed)
    blocks = inputs.userdata_blocks(shadow.peak_live_bytes, workload.headroom)
    return TraceInput(trace, shadow, blocks, seed)


def trace_input(workload: ReplayWorkload, seed: int, k: int) -> TraceInput:
    """Trace *k* of a run at *seed* (recorded at seed ``seed * 1000 + k``)."""
    return make_inputs(workload, seed * 1000 + k)


@dataclass
class Round:
    setup_s: float
    wall_s: float
    #: the replay's ops: their count, failures and durations (and, in a
    #: traced round, every layer's spans)
    profile: Profile
    #: (sim clock, IOStats items, manifest digest or None)
    fingerprint: tuple
    medium_bytes_written: int
    #: content-check failure, when the round was asked to check
    problem: Optional[str] = None


def run_round(workload: ReplayWorkload, data: TraceInput, observed: bool = True,
              check_contents: bool = False, digest: bool = True,
              layers: bool = False,
              span_file: Optional[pathlib.Path] = None) -> Round:
    """Build a fresh stack and replay one trace on it once.

    With *check_contents*, every file is then read back through the stack
    and compared with the shadow model (after the fingerprint is taken,
    since the reads advance the sim clock). With *layers*, the replay
    runs under the full layer tracer, whose spans go to *span_file*.
    """
    # the previous round's stack holds reference cycles: free it now, not
    # at a collection that lands inside this round's timing
    gc.collect()
    recorder = obs.observe() if observed else contextlib.nullcontext()
    tracer = Tracer(layers=layers, absorb=OP_FAILURES)
    clock = time.perf_counter
    with recorder:
        start = clock()
        stack = build_workload_stack(workload.setting, seed=data.seed,
                                     userdata_blocks=data.userdata_blocks)
        setup_s = clock() - start
        device = stack.phone.userdata
        start = clock()
        with tracer:
            replayed = replay_trace(data.trace, stack.fs, stack.clock,
                                    content_seed=data.seed,
                                    stats_device=device)
        wall_s = clock() - start
    if span_file is not None:
        tracer.dump(span_file)
    io = replayed.io
    fingerprint = (
        repr(stack.clock.now),
        tuple(sorted(io.as_dict().items())),
        capture(device).manifest_digest() if digest else None,
    )
    problem = None
    if check_contents:
        try:
            inputs.check_contents(stack.fs, data.shadow.files)
        except inputs.ContentMismatch as exc:
            problem = str(exc)
    return Round(setup_s, wall_s, tracer.profile(), fingerprint,
                 io.bytes_written, problem)


def _measure(workload: ReplayWorkload, seed: int, seconds: float,
             result: RunResult) -> Tuple[List[TraceInput], List[List[Round]]]:
    """Replay the run's traces in turn until the next round would overrun
    *seconds* (at least one round); returns the traces recorded and each
    one's rounds."""
    datas: List[TraceInput] = []
    rounds: List[List[Round]] = []
    spent = 0.0
    done = 0
    while True:
        k = done % workload.traces
        if k == len(datas):
            datas.append(trace_input(workload, seed, k))
            rounds.append([])
        first = not rounds[k]
        rnd = run_round(workload, datas[k], check_contents=first,
                        digest=first)
        if rnd.problem is not None:
            result.check(False, f"trace {k} content: {rnd.problem}")
        rounds[k].append(rnd)
        done += 1
        spent += rnd.setup_s + rnd.wall_s
        if spent * (done + 1) / done > seconds or spent > MAX_MEASURE_S:
            return datas, rounds


def _same_end(a: tuple, b: tuple) -> bool:
    """Fingerprints agree (digests compared where both rounds took one)."""
    return a[:2] == b[:2] and (a[2] is None or b[2] is None or a[2] == b[2])


def _check_ends(result: RunResult, label: str, k: int, rounds: List[Round],
                reference: tuple) -> None:
    for i, rnd in enumerate(rounds, 1):
        result.check(
            _same_end(rnd.fingerprint, reference),
            f"trace {k} {label} replay {i} ended at sim clock "
            f"{rnd.fingerprint[0]} / digest {str(rnd.fingerprint[2])[:12]}, "
            f"first replay at {reference[0]} / {str(reference[2])[:12]}",
        )


def _warm_up(workload: ReplayWorkload, seed: int) -> None:
    """Untimed: import and first-use costs land before the first round."""
    run_round(workload, make_inputs(workload, seed, ops=60), digest=False)


def run(workload: ReplayWorkload, seed: int, seconds: float, trace: bool,
        work_dir: pathlib.Path) -> RunResult:
    result = RunResult(workload.name, trace)
    _warm_up(workload, seed)
    datas, rounds = _measure(workload, seed, seconds, result)
    references = [r[0].fingerprint for r in rounds]
    for k, (replays, reference) in enumerate(zip(rounds, references)):
        _check_ends(result, "observed", k, replays, reference)
    flat = [rnd for replays in rounds for rnd in replays]
    ops = Profile()
    for rnd in flat:
        ops.merge(rnd.profile)
    result.attempted = ops.ops
    result.failed = ops.failed
    result.extras.update({
        "rounds": (len(flat), "count"),
        "traces_replayed": (len(rounds), "count"),
        "ops_per_trace": (inputs.non_think_ops(datas[0].trace), "count"),
        "userdata_mib": (max(d.userdata_blocks for d in datas)
                         * inputs.BLOCK / inputs.MIB, "MiB"),
        "peak_live_mib": (max(d.shadow.peak_live_bytes for d in datas)
                          / inputs.MIB, "MiB"),
    })
    if not trace:
        result.metrics.update({
            "setup_s": statistics.median(r.setup_s for r in flat),
            "ops_per_s": ((ops.ops - ops.failed)
                          / sum(r.wall_s for r in flat)),
            "peak_rss_mib": peak_rss_mib(),
        })
        result.add_latencies(latency_metrics(ops.op_samples()))
        return result

    # traced pass: each chosen trace is replayed observed, bare and traced
    # back to back, so all three see the host in about the same state
    chosen = datas[:TRACED_TRACES]
    profile = Profile()
    walls = {"observed": 0.0, "bare": 0.0, "traced": 0.0}
    for k, data in enumerate(chosen):
        for label in walls:
            if label == "traced":
                rnd = run_round(workload, data, layers=True,
                                span_file=work_dir / f"spans-trace{k}.npz")
                profile.merge(rnd.profile)
            else:
                rnd = run_round(workload, data, observed=label == "observed")
            _check_ends(result, label, k, [rnd], references[k])
            walls[label] += rnd.wall_s
    check_self_times(result, profile)
    non_think = sum(inputs.non_think_ops(d.trace) for d in chosen)
    result.check(profile.ops == non_think,
                 f"traced {profile.ops} ops, replayed {non_think}")
    result.metrics.update(zero_layer_metrics())
    result.metrics.update(layer_metrics(
        profile, len(chosen), sum(d.shadow.bytes_written for d in chosen),
        sum(r[0].medium_bytes_written for r in rounds[:len(chosen)]),
    ))
    result.metrics["obs.overhead_frac"] = (
        walls["observed"] / walls["bare"] - 1.0)
    result.metrics["bench.trace_overhead_frac"] = (
        walls["traced"] / walls["observed"] - 1.0)
    return result
