"""Seeded inputs and the shadow model the replays are checked against.

Traces are recorded on :class:`~repro.fs.tmpfs.TmpFilesystem`: a
personality's op sequence depends only on its RNG and op count, never on
the stack it runs on, so a trace recorded in RAM is the trace any stack
would record. The RAM filesystem the trace was recorded on is the shadow
model: the exact file tree a correct stack must end with. All of this
happens before any timing starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.blockdev.clock import SimClock
from repro.crypto.rng import Rng
from repro.fs.tmpfs import TmpFilesystem
from repro.fs.vfs import Filesystem
from repro.workload.engine import replay_trace, run_personality
from repro.workload.trace import TraceOp

BLOCK = 4096
MIB = 1 << 20

#: Smallest userdata any workload gets, in MiB.
MIN_USERDATA_MIB = 16


class ContentMismatch(AssertionError):
    """A stack's file tree differs from the shadow model."""


def file_sizes(fs: Filesystem) -> Dict[str, int]:
    """Every regular file of *fs* and its size."""
    sizes = {}
    for dirpath, _dirs, files in fs.walk("/"):
        for name in files:
            path = dirpath.rstrip("/") + "/" + name
            sizes[path] = fs.stat(path).size
    return sizes


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Shadow:
    """The expected end state of a replay, and its peak live bytes.

    ``files`` maps each surviving path to the SHA-256 of its contents, so
    a run holds many traces' expectations without holding their bytes.
    """

    files: Dict[str, str]
    peak_live_bytes: int
    bytes_written: int


def _ram_fs() -> TmpFilesystem:
    fs = TmpFilesystem()
    fs.format()
    fs.mount()
    return fs


def record_trace(personality: str, ops: int,
                 seed: int) -> Tuple[List[TraceOp], Shadow]:
    """Record *personality* for *ops* ops at *seed* on a RAM filesystem;
    returns the trace and its shadow model.

    The RNG fork matches :func:`repro.workload.runner.run_device`, so the
    trace is the one a device run at the same seed would execute.
    """
    fs = _ram_fs()
    rng = Rng(seed).fork(f"workload/{personality}")
    result, trace = run_personality(
        personality, fs, SimClock(), rng, ops=ops, content_seed=seed
    )
    files = {path: content_digest(fs.read_file(path))
             for path in file_sizes(fs)}
    return trace, Shadow(files, peak_live_bytes(trace), result.bytes_written)


def peak_live_bytes(trace: List[TraceOp]) -> int:
    """The most bytes the files of *trace* hold at any point.

    Each op that can change a file's size is replayed on its own through
    ``replay_trace`` on a RAM filesystem. Its payload bytes then differ
    from the recorded ones (they derive from the op's index), its file
    sizes do not. Reads and think ops change no size and are skipped.
    """
    fs = _ram_fs()
    clock = SimClock()
    peak = 0
    for op in trace:
        if op.op in ("read", "think"):
            continue
        replay_trace([op], fs, clock)
        peak = max(peak, sum(file_sizes(fs).values()))
    return peak


def userdata_blocks(peak_live_bytes: int, headroom: int) -> int:
    """Userdata size: *headroom* x peak live bytes, rounded up to a power
    of two MiB and at least ``MIN_USERDATA_MIB``."""
    mib = max(MIN_USERDATA_MIB, -(-peak_live_bytes * headroom // MIB))
    return (1 << (mib - 1).bit_length()) * MIB // BLOCK


def check_contents(fs: Filesystem, expected: Dict[str, str]) -> int:
    """Read every file back through *fs* and compare with *expected*
    (path -> SHA-256 of the contents).

    Raises :class:`ContentMismatch` on a missing, extra or different
    file; returns the number of files checked.
    """
    actual = set(file_sizes(fs))
    missing = sorted(set(expected) - actual)
    extra = sorted(actual - set(expected))
    if missing or extra:
        raise ContentMismatch(
            f"file sets differ: missing {missing[:5]}, extra {extra[:5]}"
        )
    for path in sorted(expected):
        data = fs.read_file(path)
        if content_digest(data) != expected[path]:
            raise ContentMismatch(
                f"{path}: the {len(data)} bytes read back differ from the "
                "shadow model's"
            )
    return len(expected)


def non_think_ops(trace: List[TraceOp]) -> int:
    """Ops of *trace* that touch storage (everything but ``think``)."""
    return sum(op.op != "think" for op in trace)
