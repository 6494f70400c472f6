"""The daemon workload: two closed-loop clients against ``repro serve``.

Each *round* starts a fresh daemon subprocess with its defaults (CoW
store, request tracing and the ``access.v1`` log on) over a fresh
in-memory SQLite session store, creates and boots one device per client
(the round's set-up), then runs ``CLIENTS`` threads, each with its own
``ServerClient`` and its own device, through a seeded script of requests:
4-16 KiB writes over a Zipf-ranked set of paths, reads of paths it wrote
earlier, and a ``snapshot`` every ``SNAPSHOT_EVERY`` requests. The mix is
taken from the program's own traffic models (see the constants below).
Every client waits for each reply before sending the next request. The
daemon runs on a CPU of its own, the clients on the others
(:func:`cpu_split`). After the script the round
records each device's ``image_digest``, the daemon's ``/metrics`` wall
histograms, its peak RSS and its access log, then stops it with SIGTERM.
Rounds repeat until the next would overrun ``--seconds``.

Checks: every read returns the bytes the client last wrote there, and
every round ends with the same per-device ``image_digest``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.rng import Rng
from repro.server.client import ServerAPIError, ServerClient
from repro.workload.engine import ZipfSampler

from perfbench import inputs
from perfbench.report import (
    RunResult,
    check_self_times,
    layer_metrics,
    proc_hwm_mib,
    zero_layer_metrics,
)
from perfbench.spec import MAX_MEASURE_S, latency_metrics, percentile
from perfbench.tracer import Profile

CLIENTS = 2
#: requests per client per round
REQUESTS = 200
#: Paths: the Zipf-ranked app population of ``mixed_daily`` and its
#: exponent (``repro.workload.personalities``).
PATHS = 24
ZIPF_S = 1.2
#: Writes: one ``mixed_daily`` WAL commit, 1 to 4 frames of 4 KiB.
FRAME = 4096
FRAMES_MIN, FRAMES_MAX = 1, 4
#: Reads: the share of ``mixed_daily`` steps that read an app's database.
READ_SHARE = 0.15
#: Snapshots: one after each round of the multi-snapshot game, which
#: plays 4 rounds by default (``repro.adversary.game.MultiSnapshotGame``).
GAME_ROUNDS = 4
SNAPSHOT_EVERY = REQUESTS // GAME_ROUNDS
#: userdata = headroom x the largest live set a script can leave, sized
#: by the rule every workload uses
HEADROOM = 8
USERDATA_BLOCKS = inputs.userdata_blocks(PATHS * FRAMES_MAX * FRAME,
                                         HEADROOM)
PASSWORD = "decoy"
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0

Request = Tuple[str, str, bytes]  # (kind, path, payload)


def make_script(seed: int, client: int) -> List[Request]:
    """One client's seeded request sequence."""
    rng = Rng(seed).fork(f"daemon/client{client}")
    zipf = ZipfSampler(PATHS, s=ZIPF_S)
    written: List[str] = []
    script: List[Request] = []
    for n in range(REQUESTS):
        if n % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
            script.append(("snapshot", "", b""))
            continue
        path = f"/data/bench/f{zipf.sample(rng):02d}"
        if written and rng.random() < READ_SHARE:
            if path not in written:
                path = written[-1]
            script.append(("read", path, b""))
        else:
            size = rng.randint(FRAMES_MIN, FRAMES_MAX) * FRAME
            script.append(("write", path, rng.random_bytes(size)))
            if path not in written:
                written.append(path)
    return script


@dataclass
class ClientLog:
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: (client latency s, response span id) per device request
    spans: List[Tuple[float, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    user_bytes: int = 0
    #: failed requests (counted in ``failed``) and wrong read-backs
    errors: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def drive(client: ServerClient, device_id: int, script: List[Request],
          log: ClientLog) -> None:
    """Client thread body: :func:`run_script`, with any unexpected error
    recorded as a failed check instead of dying unseen in the thread."""
    try:
        run_script(client, device_id, script, log)
    except Exception:  # noqa: BLE001 - reported, and fails the run
        log.problems.append(traceback.format_exc())


def run_script(client: ServerClient, device_id: int, script: List[Request],
               log: ClientLog) -> None:
    """Run *script* closed-loop, checking reads against a shadow copy."""
    shadow: Dict[str, bytes] = {}
    clock = time.perf_counter
    for kind, path, payload in script:
        log.attempted += 1
        start = clock()
        try:
            if kind == "write":
                client.write(device_id, path, payload)
            elif kind == "read":
                data = client.read_file(device_id, path)
            else:
                client.snapshot(device_id)
        except (ServerAPIError, OSError) as exc:
            log.failed += 1
            log.errors.append(f"{kind} {path}: {exc}")
            continue
        elapsed = clock() - start
        log.samples.setdefault(kind, []).append(elapsed)
        if client.last_trace:
            log.spans.append((elapsed, client.last_trace.split(":")[-1]))
        if kind == "write":
            shadow[path] = payload
            log.user_bytes += len(payload)
        elif kind == "read" and data != shadow.get(path):
            log.problems.append(
                f"read {path}: {len(data)} bytes differ from the "
                f"bytes written there last")


@dataclass
class Round:
    setup_s: float
    wall_s: float
    logs: List[ClientLog]
    digests: List[str]
    metrics: Dict[str, object]
    access: List[Dict[str, object]]
    rss_mib: float
    #: bytes of the content-addressed block table of the session store
    store_bytes: int
    profile: Optional[Profile] = None


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, work: pathlib.Path, src: pathlib.Path, tracing: bool,
                 profile_out: Optional[pathlib.Path],
                 cpus: Optional[Set[int]]) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.stream_dir = work / "stream"
        # the session store lives in memory: fsync latency of a shared
        # disk swings the whole round by 2x from one minute to the next
        serve = ["serve", "--port", "0", "--db", ":memory:",
                 "--stream-dir", str(self.stream_dir)]
        if not tracing:
            serve.append("--no-tracing")
        if profile_out is not None:
            cmd = [sys.executable, "-m", "perfbench.daemon_hook",
                   str(profile_out)] + serve
        else:
            cmd = [sys.executable, "-m", "repro"] + serve
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(src.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._log = (work / "daemon.log").open("w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(work), text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus
            else None,
        )

    def wait_listening(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        address = line.split(marker, 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM, wait for the clean shutdown; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def cpu_split() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """The CPUs of the daemon (the last usable one) and of the benchmark's
    client threads (the others); ``(None, None)`` with fewer than two.

    Left free to migrate, the daemon's threads and the clients' share the
    CPUs as the scheduler sees fit. On a 2-vCPU host, 7 interleaved pairs
    of identical rounds had an IQR/median throughput of 0.26 unpinned
    and 0.11 with each side on its own CPU, and the pinned round was the
    faster one in 6 of the 7 pairs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


@contextlib.contextmanager
def on_cpus(cpus: Optional[Set[int]]):
    """Run the calling thread, and the threads it starts, on *cpus*."""
    own = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


def run_round(seed: int, work: pathlib.Path, src: pathlib.Path,
              scripts: List[List[Request]], tracing: bool = True,
              profile_out: Optional[pathlib.Path] = None) -> Round:
    daemon_cpus, client_cpus = cpu_split()
    with on_cpus(client_cpus):
        return _run_round(seed, work, src, scripts, tracing, profile_out,
                          daemon_cpus)


def _run_round(seed: int, work: pathlib.Path, src: pathlib.Path,
               scripts: List[List[Request]], tracing: bool,
               profile_out: Optional[pathlib.Path],
               daemon_cpus: Optional[Set[int]]) -> Round:
    clock = time.perf_counter
    start = clock()
    daemon = Daemon(work, src, tracing, profile_out, daemon_cpus)
    try:
        port = daemon.wait_listening()
        admin = ServerClient(port=port)
        admin.wait_healthy(timeout=START_TIMEOUT_S)
        device_ids = []
        for i in range(CLIENTS):
            created = admin.create_device(
                f"bench{i}", seed=seed * CLIENTS + i,
                userdata_blocks=USERDATA_BLOCKS)
            admin.boot(created["id"], PASSWORD)
            device_ids.append(created["id"])
        setup_s = clock() - start
        logs = [ClientLog() for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=drive, args=(
                ServerClient(port=port), device_ids[i], scripts[i], logs[i]))
            for i in range(CLIENTS)
        ]
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=MAX_MEASURE_S)
        wall_s = clock() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("daemon clients did not finish")
        digests = [admin.device(d)["image_digest"] for d in device_ids]
        metrics = admin.metrics()
        store_bytes = admin.healthz()["store"]["blocks"] * inputs.BLOCK
        rss_mib = proc_hwm_mib(daemon.proc.pid) or 0.0
    finally:
        daemon.stop()
    access_log = daemon.stream_dir / "access.jsonl"
    access = ([json.loads(line) for line in access_log.read_text().splitlines()]
              if access_log.exists() else [])
    profile = None
    if profile_out is not None:
        profile = Profile.from_dict(json.loads(profile_out.read_text()))
    return Round(setup_s, wall_s, logs, digests, metrics, access, rss_mib,
                 store_bytes, profile)


def server_metrics(rnd: Round) -> Dict[str, float]:
    """HTTP / queue / op / checkpoint split of one round's requests."""
    access = {a["span"]: a for a in rnd.access if a.get("device", -1) >= 0}
    writes = [a for a in access.values() if a["route"].endswith("write")]
    http_ms = [latency * 1e3 - access[span]["wall_ms"]
               for log in rnd.logs for latency, span in log.spans
               if span in access]
    op_ms = sum(a["wall_ms"] - a["queue_ms"] for a in access.values())
    checkpoint = rnd.metrics["wall"]["histograms"]["server.checkpoint_s"]
    user_bytes = sum(log.user_bytes for log in rnd.logs)
    return {
        "server.http_ms_p50": statistics.median(http_ms),
        "server.queue_ms_p95": percentile([a["queue_ms"] for a in writes],
                                          0.95),
        "server.op_ms_p50": statistics.median(
            a["wall_ms"] - a["queue_ms"] for a in writes),
        "server.checkpoint_ms_p50": checkpoint["p50_s"] * 1e3,
        "server.checkpoint_frac":
            checkpoint["mean_s"] * checkpoint["count"] / (op_ms / 1e3),
        "server.db_bytes_per_user_byte": rnd.store_bytes / user_bytes,
    }


def _record(result: RunResult, rnd: Round, reference: List[str],
            label: str) -> None:
    for log in rnd.logs:
        result.problems.extend(f"{label}: {p}" for p in log.problems)
    result.check(rnd.digests == reference,
                 f"{label} round ended on image digests "
                 f"{[d[:12] for d in rnd.digests]}, expected "
                 f"{[d[:12] for d in reference]}")


def run(seed: int, seconds: float, trace: bool, work_dir: pathlib.Path,
        src: pathlib.Path) -> RunResult:
    result = RunResult("daemon_rw", trace)
    scripts = [make_script(seed, i) for i in range(CLIENTS)]
    rounds: List[Round] = []
    spent = 0.0
    while True:
        rnd = run_round(seed, work_dir / f"round{len(rounds)}", src, scripts)
        rounds.append(rnd)
        spent += rnd.setup_s + rnd.wall_s
        if spent * (len(rounds) + 1) / len(rounds) > seconds \
                or spent > MAX_MEASURE_S:
            break
    reference = rounds[0].digests
    for i, rnd in enumerate(rounds, 1):
        _record(result, rnd, reference, f"round {i}")
    logs = [log for rnd in rounds for log in rnd.logs]
    result.attempted = sum(log.attempted for log in logs)
    result.failed = sum(log.failed for log in logs)
    pooled: Dict[str, List[float]] = {}
    for log in logs:
        for kind, values in log.samples.items():
            pooled.setdefault(kind, []).extend(values)
    walls = [r.wall_s for r in rounds]
    result.extras.update({
        "rounds": (len(rounds), "count"),
        "clients": (CLIENTS, "count"),
        "requests_per_round": (CLIENTS * REQUESTS, "count"),
    })
    if not trace:
        result.metrics.update({
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "ops_per_s": statistics.median(
                sum(log.attempted - log.failed for log in r.logs) / r.wall_s
                for r in rounds),
            "peak_rss_mib": max(r.rss_mib for r in rounds),
        })
        result.add_latencies(latency_metrics(pooled))
        return result

    bare = run_round(seed, work_dir / "bare", src, scripts, tracing=False)
    _record(result, bare, reference, "untraced daemon")
    traced = run_round(seed, work_dir / "traced", src, scripts,
                       profile_out=work_dir / "daemon-profile.json")
    _record(result, traced, reference, "traced daemon")
    profile = traced.profile
    check_self_times(result, profile)
    observed_wall = statistics.median(walls)
    result.metrics.update(zero_layer_metrics())
    user_bytes = sum(log.user_bytes for log in traced.logs)
    result.metrics.update(layer_metrics(
        profile, CLIENTS, user_bytes,
        profile.name_blocks["EMMCDevice.write_blocks"] * inputs.BLOCK,
    ))
    per_round = [server_metrics(r) for r in rounds]
    for name in per_round[0]:
        result.metrics[name] = statistics.median(m[name] for m in per_round)
    result.metrics["obs.overhead_frac"] = observed_wall / bare.wall_s - 1.0
    result.metrics["bench.trace_overhead_frac"] = (
        traced.wall_s / observed_wall - 1.0)
    return result
