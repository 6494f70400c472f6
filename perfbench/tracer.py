"""Outside-in per-layer tracing: spans recorded by run-time wrappers.

:class:`Tracer` replaces the public entry points of each storage layer
(ext4 VFS calls, dm-crypt extents, the BLAKE2b keystream cipher, the thin
pool, the dummy-write policy, the eMMC device, the BlockStore backends)
with thin wrappers that record one span per call: the entry point's name,
its parent span, wall start and end, and the extent length where the call
has one. Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts
every original attribute back.

A *root* span is one workload operation (a ``WorkloadContext`` op on the
replays and the fleet, ``ServerDevice.run_op`` in the daemon). Calls made
outside any root — stack set-up, correctness checks — are not recorded.
Spans live in per-thread in-memory arrays until :meth:`Tracer.dump`
writes them out; :meth:`Tracer.profile` folds them into per-layer totals.

A layer's self time is its spans' durations minus the durations of their
direct children. Wrapped calls nest strictly within one thread, so the
children never overlap, and the self times of all layers sum to the root
spans' wall time exactly (up to float rounding). Glue code that is not
wrapped (a dm table lookup, a ``SubDevice`` offset) is charged to the
nearest wrapped caller, and so is each wrapper's own bookkeeping.

A tracer made with ``absorb`` counts a root op that raises one of those
exception types as a failed op and lets the caller go on to its next op;
failed ops are kept out of the op latencies.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.errors import ReproError


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_at(index: int, key: str):
    """Extent length passed as a block count."""
    return lambda args, kwargs: int(_arg(args, kwargs, index, key))


def _data_at(index: int, key: str):
    """Extent length of a data buffer, in the callee's blocks."""
    return lambda args, kwargs: (
        len(_arg(args, kwargs, index, key)) // args[0].block_size
    )


def _cipher_units(args, kwargs) -> int:
    return len(_arg(args, kwargs, 2, "data")) // _arg(args, kwargs, 3, "unit_bytes")


def _one(args, kwargs) -> int:
    return 1


BlocksOf = Optional[Callable[[tuple, dict], int]]

#: The VFS surface of ``Ext4Filesystem`` (own methods and the shared
#: conveniences it inherits from ``Filesystem``).
EXT4_VFS = (
    "exists", "stat", "listdir", "mkdir", "rmdir", "makedirs", "unlink",
    "rename", "statfs", "open", "flush", "write_file", "append_file",
    "read_file",
)

RootPoint = Tuple[str, str, Sequence[str]]

#: Workload-op roots of the replays and the fleet: (module, class, methods).
ENGINE_ROOTS: Tuple[RootPoint, ...] = (
    ("repro.workload.engine", "WorkloadContext",
     ("mkdir", "write", "read", "unlink", "rename", "fsync")),
)

#: What a failed workload op raises: an engine, filesystem or device
#: error such as ``NoSpaceError``. A bug raises anything else.
OP_FAILURES: Tuple[Type[BaseException], ...] = (ReproError,)

#: Device-op roots inside the daemon.
DAEMON_ROOTS: Tuple[RootPoint, ...] = (
    ("repro.server.device", "ServerDevice", ("run_op",)),
)

#: Layer entry points: (module, class, methods, layer, blocks-of).
LAYER_POINTS: Tuple[Tuple[str, str, Sequence[str], str, BlocksOf], ...] = (
    ("repro.fs.ext4", "Ext4Filesystem", EXT4_VFS, "ext4", None),
    ("repro.fs.ext4", "_Ext4Handle", ("read", "write"), "ext4", None),
    ("repro.dm.crypt", "CryptTarget", ("read_extent",), "crypt",
     _count_at(2, "count")),
    ("repro.dm.crypt", "CryptTarget", ("write_extent",), "crypt",
     _data_at(2, "data")),
    ("repro.crypto.stream", "Blake2Ctr",
     ("encrypt_extent", "decrypt_extent"), "crypto", _cipher_units),
    ("repro.dm.thin.pool", "ThinPool", ("read_extent",), "thin",
     _count_at(3, "count")),
    ("repro.dm.thin.pool", "ThinPool", ("write_extent",), "thin",
     _data_at(3, "data")),
    ("repro.dm.thin.pool", "ThinPool", ("commit",), "thin.commit", None),
    # noise blocks are dummy-write work, so they are charged there
    ("repro.dm.thin.pool", "ThinPool", ("append_noise",), "dummywrite", _one),
    ("repro.core.dummywrite", "DummyWritePolicy", ("on_provision",),
     "dummywrite", None),
    ("repro.blockdev.emmc", "EMMCDevice", ("read_blocks",), "emmc",
     _count_at(2, "count")),
    ("repro.blockdev.emmc", "EMMCDevice", ("write_blocks",), "emmc",
     _data_at(2, "data")),
    ("repro.blockdev.emmc", "EMMCDevice", ("flush",), "emmc", None),
    ("repro.blockdev.store", "RamStore", ("read_extent",), "store",
     _count_at(2, "count")),
    ("repro.blockdev.store", "RamStore", ("write_extent",), "store",
     _data_at(2, "data")),
    ("repro.blockdev.store", "MmapStore", ("read_extent",), "store",
     _count_at(2, "count")),
    ("repro.blockdev.store", "MmapStore", ("write_extent",), "store",
     _data_at(2, "data")),
    ("repro.blockdev.store", "CowOverlayStore", ("read_extent",), "store",
     _count_at(2, "count")),
    ("repro.blockdev.store", "CowOverlayStore", ("write_extent",), "store",
     _data_at(2, "data")),
    ("repro.blockdev.store", "RamStore", ("freeze",), "store", None),
    ("repro.blockdev.store", "MmapStore", ("freeze",), "store", None),
    ("repro.blockdev.store", "CowOverlayStore", ("freeze",), "store", None),
)

#: Layer of the root spans.
ROOT_LAYER = "engine"

#: Every layer a profile reports, outermost first.
LAYERS = (
    ROOT_LAYER, "ext4", "crypt", "crypto", "thin", "thin.commit",
    "dummywrite", "emmc", "store",
)

_MISSING = object()


class _Buffer:
    """One thread's spans, as parallel arrays (index = span id)."""

    __slots__ = ("name", "parent", "blocks", "t0", "t1", "failed", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.blocks = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        #: 1 where a root op raised an absorbed exception
        self.failed = array("b")
        self.stack: List[int] = []


@dataclass
class Profile:
    """Per-layer totals folded from recorded spans."""

    #: root spans (workload ops), the ones that failed, and their summed
    #: wall seconds
    ops: int = 0
    failed: int = 0
    op_wall_s: float = 0.0
    #: per layer: self seconds, entry calls, blocks over entry calls
    self_s: Dict[str, float] = field(default_factory=dict)
    entries: Dict[str, int] = field(default_factory=dict)
    blocks: Dict[str, int] = field(default_factory=dict)
    #: per span name: calls, blocks moved, and single-block calls
    calls: Dict[str, int] = field(default_factory=dict)
    name_blocks: Dict[str, int] = field(default_factory=dict)
    single_block: Dict[str, int] = field(default_factory=dict)
    #: per root name: wall durations in seconds of the ops that succeeded
    op_durations: Dict[str, List[float]] = field(default_factory=dict)

    def merge(self, other: "Profile") -> "Profile":
        self.ops += other.ops
        self.failed += other.failed
        self.op_wall_s += other.op_wall_s
        for mine, theirs in (
            (self.self_s, other.self_s), (self.entries, other.entries),
            (self.blocks, other.blocks), (self.calls, other.calls),
            (self.name_blocks, other.name_blocks),
            (self.single_block, other.single_block),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        for key, values in other.op_durations.items():
            self.op_durations.setdefault(key, []).extend(values)
        return self

    def as_dict(self) -> Dict[str, object]:
        return {
            "ops": self.ops, "failed": self.failed,
            "op_wall_s": self.op_wall_s,
            "self_s": self.self_s, "entries": self.entries,
            "blocks": self.blocks, "calls": self.calls,
            "name_blocks": self.name_blocks,
            "single_block": self.single_block,
            "op_durations": self.op_durations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Profile":
        return cls(**data)  # type: ignore[arg-type]

    def op_samples(self) -> Dict[str, List[float]]:
        """Op durations by op kind (the root method's name)."""
        out: Dict[str, List[float]] = {}
        for name, values in self.op_durations.items():
            out.setdefault(name.rsplit(".", 1)[-1], []).extend(values)
        return out


class Tracer:
    """Installs span-recording wrappers; one instance per traced pass.

    ``layers=False`` installs the root wrappers only, which times every
    workload op at negligible cost: the untimed-layer rounds of the
    replays and the fleet take their op latencies from it.
    """

    def __init__(
        self,
        roots: Sequence[RootPoint] = ENGINE_ROOTS,
        layers: bool = True,
        absorb: Tuple[Type[BaseException], ...] = (),
    ) -> None:
        self._absorb = absorb
        self._points = [(m, c, ms, ROOT_LAYER, None, True)
                        for m, c, ms in roots]
        if layers:
            self._points += [(m, c, ms, layer, blocks, False)
                             for m, c, ms, layer, blocks in LAYER_POINTS]
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._patches: List[Tuple[type, str, object]] = []
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point. Reinstalling after :meth:`uninstall`
        assigns the same span-name ids, so spans from every install fold
        together."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.names, self.name_layer = [], []
        for module, cls_name, methods, layer, blocks_of, root in self._points:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                original = getattr(cls, method)
                name_id = len(self.names)
                self.names.append(f"{cls_name}.{method}")
                self.name_layer.append(layer)
                self._patches.append(
                    (cls, method, cls.__dict__.get(method, _MISSING))
                )
                setattr(cls, method,
                        self._wrap(original, name_id, blocks_of, root))
        return self

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patches):
            if original is _MISSING:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def _wrap(self, fn, name_id: int, blocks_of: BlocksOf, root: bool):
        local = self._local
        new_buffer = self._buffer
        clock = time.perf_counter
        absorb = self._absorb if root else ()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            if not stack and not root:
                return fn(*args, **kwargs)  # outside any workload op
            idx = len(buf.t0)
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.blocks.append(blocks_of(args, kwargs) if blocks_of else -1)
            buf.t1.append(0.0)
            buf.failed.append(0)
            stack.append(idx)
            buf.t0.append(clock())
            try:
                return fn(*args, **kwargs)
            except absorb:
                buf.failed[idx] = 1
                return None
            finally:
                buf.t1[idx] = clock()
                stack.pop()

        return wrapper

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span (keeps the wrappers installed)."""
        with self._lock:
            for buf in self._buffers:
                if buf.stack:
                    raise RuntimeError("reset while a span is open")
                for arr in (buf.name, buf.parent, buf.blocks, buf.t0, buf.t1,
                            buf.failed):
                    del arr[:]

    def spans(self) -> Dict[str, np.ndarray]:
        """All recorded spans as flat arrays; parents index the same arrays."""
        parts = {k: [] for k in ("name", "parent", "blocks", "t0", "t1",
                                 "failed")}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            n = len(buf.t0)
            if not n:
                continue
            if buf.stack:
                raise RuntimeError("spans read while a span is open")
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            parts["blocks"].append(np.frombuffer(buf.blocks, dtype=np.int64))
            parts["t0"].append(np.frombuffer(buf.t0, dtype=np.float64))
            parts["t1"].append(np.frombuffer(buf.t1, dtype=np.float64))
            parts["failed"].append(np.frombuffer(buf.failed, dtype=np.int8))
            offset += n
        dtypes = {"name": np.int32, "parent": np.int64, "blocks": np.int64,
                  "t0": np.float64, "t1": np.float64, "failed": np.int8}
        return {
            k: (np.concatenate(v) if v else np.zeros(0, dtype=dtypes[k]))
            for k, v in parts.items()
        }

    def dump(self, path) -> None:
        """Write every span (and the name table) to an ``.npz`` file."""
        spans = self.spans()
        np.savez(
            path, names=np.array(json.dumps(
                {"names": self.names, "layers": self.name_layer})),
            **spans,
        )

    def profile(self) -> Profile:
        return fold(self.spans(), self.names, self.name_layer)


def fold(spans: Dict[str, np.ndarray], names: Sequence[str],
         name_layer: Sequence[str]) -> Profile:
    """Fold flat span arrays into a :class:`Profile`."""
    out = Profile()
    n = len(spans["t0"])
    if not n:
        return out
    name, parent, blocks = spans["name"], spans["parent"], spans["blocks"]
    dur = spans["t1"] - spans["t0"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_s = dur - child
    layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
    name_to_layer = np.array([layer_ids[l] for l in name_layer],
                             dtype=np.int64)
    layer = name_to_layer[name]
    parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)],
                            -1)
    entry = parent_layer != layer
    sized = entry & (blocks >= 0)
    nl = len(LAYERS)
    layer_self = np.bincount(layer, weights=self_s, minlength=nl)
    layer_entries = np.bincount(layer[entry], minlength=nl)
    layer_blocks = np.bincount(layer[sized], weights=blocks[sized],
                               minlength=nl)
    calls = np.bincount(name, minlength=len(names))
    has_blocks = blocks >= 0
    name_blocks = np.bincount(name[has_blocks], weights=blocks[has_blocks],
                              minlength=len(names))
    single = np.bincount(name[blocks == 1], minlength=len(names))
    roots = ~has_parent
    succeeded = roots & (spans["failed"] == 0)
    out.ops = int(roots.sum())
    out.failed = out.ops - int(succeeded.sum())
    out.op_wall_s = float(dur[roots].sum())
    for i, layer_name in enumerate(LAYERS):
        out.self_s[layer_name] = float(layer_self[i])
        out.entries[layer_name] = int(layer_entries[i])
        out.blocks[layer_name] = int(layer_blocks[i])
    for i, span_name in enumerate(names):
        out.calls[span_name] = int(calls[i])
        out.name_blocks[span_name] = int(name_blocks[i])
        out.single_block[span_name] = int(single[i])
    for i in np.unique(name[succeeded]):
        out.op_durations[names[i]] = dur[succeeded & (name == i)].tolist()
    return out
