"""Block device abstractions.

A :class:`BlockDevice` is the unit of composition for the whole stack: the
eMMC simulator, every device-mapper target, thin volumes, and encrypted
volumes all expose this interface, exactly as Linux block devices do for the
real MobiCeal. All I/O is in whole blocks.
"""

from __future__ import annotations

import contextlib
import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import (
    BadBlockSizeError,
    DeviceClosedError,
    OutOfRangeError,
    ReadOnlyDeviceError,
)
from repro.blockdev.store import BlockStore, FrozenImage, make_store


def _deep_span(name: str, **attrs):
    """Lazy ``repro.obs.deep_span`` — device.py sits below repro.obs in the
    import graph (obs' crash-point spine imports this module), so the obs
    package cannot be imported at module load time."""
    from repro import obs

    return obs.deep_span(name, **attrs)

#: Default logical block size for the stack (matches ext4 and dm-thin).
DEFAULT_BLOCK_SIZE = 4096

# While True, read_blocks/write_blocks decompose into single-block extents
# at the top of the stack instead of propagating whole extents. The
# equivalence tests and the hotpath benchmark use this as the reference
# behaviour (the test-oracle decomposition: extents are the only I/O
# representation, the oracle merely forces block-at-a-time ordering).
_PER_BLOCK_ONLY = False


@contextlib.contextmanager
def per_block_baseline() -> Iterator[None]:
    """Force block-at-a-time I/O ordering for the enclosed code.

    Inside this context every ``read_blocks``/``write_blocks`` call is
    decomposed into single-block extents before entering the stack, which
    reproduces the historical per-block ordering exactly (clock charges,
    RNG draws, stats booking). This is a *cost oracle only*: the extent
    plan is the stack's sole I/O representation, and fidelity tests use
    this context to compare device images, simulated clocks and IOStats
    between block-at-a-time and batched extent delivery; the hotpath
    benchmark uses it as its wall-clock baseline.
    """
    global _PER_BLOCK_ONLY
    previous = _PER_BLOCK_ONLY
    _PER_BLOCK_ONLY = True
    try:
        yield
    finally:
        _PER_BLOCK_ONLY = previous


class ExtentCosts:
    """Deferred per-block clock charges carried alongside an extent.

    Layers above the physical device (dm-crypt CPU time, dm-thin lookup
    cost) charge the simulated clock once per block. When a multi-block
    extent travels down the stack in a single call, those charges must
    still hit the clock in exactly the per-block order — IEEE-754
    addition is not associative, so batching them per layer would drift
    the simulated clock away from the per-block path by rounding. Each
    layer therefore appends its per-block charge to this schedule instead
    of advancing the clock itself, and the leaf device replays the
    schedule once per block, interleaved with its own latency charges.

    ``pre`` charges land before a block's device operation (write-side
    CPU, thin lookups); ``post`` charges land after it (read-side CPU,
    e.g. decryption of data that just arrived). Besides clock charges a
    layer may schedule arbitrary per-block callbacks (``add_pre_call`` /
    ``add_post_call``) — observability counters use these so that a fault
    raised mid-extent leaves the counters exactly where the per-block
    path would have.
    """

    __slots__ = ("pre", "post", "pre_calls", "post_calls")

    def __init__(self) -> None:
        self.pre: List[Tuple[object, float, str]] = []
        self.post: List[Tuple[object, float, str]] = []
        self.pre_calls: List[Callable[[], None]] = []
        self.post_calls: List[Callable[[], None]] = []

    @property
    def empty(self) -> bool:
        return not (
            self.pre or self.post or self.pre_calls or self.post_calls
        )

    def add_pre(self, clock, seconds: float, reason: str) -> None:
        self.pre.append((clock, seconds, reason))

    def add_post(self, clock, seconds: float, reason: str) -> None:
        self.post.append((clock, seconds, reason))

    def add_pre_call(self, fn: Callable[[], None]) -> None:
        self.pre_calls.append(fn)

    def add_post_call(self, fn: Callable[[], None]) -> None:
        self.post_calls.append(fn)

    def replay_pre(self) -> None:
        for clock, seconds, reason in self.pre:
            clock.advance(seconds, reason)
        for fn in self.pre_calls:
            fn()

    def replay_post(self) -> None:
        for clock, seconds, reason in self.post:
            clock.advance(seconds, reason)
        for fn in self.post_calls:
            fn()

    def clone(self) -> "ExtentCosts":
        copy = ExtentCosts()
        copy.pre = list(self.pre)
        copy.post = list(self.post)
        copy.pre_calls = list(self.pre_calls)
        copy.post_calls = list(self.post_calls)
        return copy


def replay_per_block(costs: Optional["ExtentCosts"], count: int):
    """Iterate ``0..count-1`` replaying *costs* around each block.

    The one canonical block-at-a-time decomposition of an extent: layers
    that must break an extent apart (an armed fault plan drawing RNG per
    block, a tracer stamping per-block completion times, genuinely
    per-block media like the ORAM baselines) loop over this generator,
    and :func:`per_block_baseline` builds the test oracle from it. The
    schedule's pre charges land before the ``yield`` (the block's device
    operation) and its post charges after, exactly as the leaf device
    would interleave them.
    """
    if costs is None or costs.empty:
        yield from range(count)
        return
    for i in range(count):
        costs.replay_pre()
        yield i
        costs.replay_post()


# Depth of nested recovery_io() sections. While positive, every device
# books its I/O under the recovery_* counters instead of the workload
# counters, so crash-recovery I/O never pollutes bench measurements.
_RECOVERY_DEPTH = 0


@contextlib.contextmanager
def recovery_io() -> Iterator[None]:
    """Mark the enclosed I/O as crash-recovery work, not workload.

    Recovery paths (journal replay, metadata rollback, bitmap
    reconciliation) wrap themselves in this context manager; all devices
    then count their reads/writes under ``IOStats.recovery_reads`` /
    ``IOStats.recovery_writes``. Nesting is allowed and cheap.
    """
    global _RECOVERY_DEPTH
    _RECOVERY_DEPTH += 1
    try:
        yield
    finally:
        _RECOVERY_DEPTH -= 1


def in_recovery() -> bool:
    """True while executing inside a :func:`recovery_io` section."""
    return _RECOVERY_DEPTH > 0


@dataclass
class IOStats:
    """Operation counters kept by every device for benches and tests."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    flushes: int = 0
    discards: int = 0
    # I/O performed inside a recovery_io() section is booked separately so
    # benches never double-count crash recovery as workload.
    recovery_reads: int = 0
    recovery_writes: int = 0

    def snapshot(self) -> "IOStats":
        """Return a copy, so callers can diff counters across a workload."""
        return IOStats(
            reads=self.reads,
            writes=self.writes,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            flushes=self.flushes,
            discards=self.discards,
            recovery_reads=self.recovery_reads,
            recovery_writes=self.recovery_writes,
        )

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since *earlier* (an earlier ``snapshot()``)."""
        return IOStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            flushes=self.flushes - earlier.flushes,
            discards=self.discards - earlier.discards,
            recovery_reads=self.recovery_reads - earlier.recovery_reads,
            recovery_writes=self.recovery_writes - earlier.recovery_writes,
        )

    def __sub__(self, earlier: "IOStats") -> "IOStats":
        return self.delta(earlier)

    def as_dict(self) -> dict:
        """Plain-dict export for the observability JSON payloads."""
        return dataclasses.asdict(self)


class BlockDevice(ABC):
    """Abstract fixed-block-size random-access device."""

    def __init__(self, num_blocks: int, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if block_size <= 0 or block_size % 512 != 0:
            raise ValueError(f"block_size must be a positive multiple of 512: {block_size}")
        self._num_blocks = num_blocks
        self._block_size = block_size
        self._closed = False
        self.stats = IOStats()

    # -- geometry ----------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def size_bytes(self) -> int:
        return self._num_blocks * self._block_size

    @property
    def closed(self) -> bool:
        return self._closed

    # -- I/O ---------------------------------------------------------------

    def read_block(self, block: int) -> bytes:
        """Read one block; sugar for a single-block extent."""
        return self.read_blocks(block, 1)

    def write_block(self, block: int, data: bytes) -> None:
        """Write one block; *data* must be exactly ``block_size`` bytes."""
        if len(data) != self._block_size:
            raise BadBlockSizeError(len(data), self._block_size)
        self.write_blocks(block, data)

    def flush(self) -> None:
        """Flush any volatile state to stable storage."""
        if self._closed:
            raise DeviceClosedError("flush on closed device")
        self.stats.flushes += 1
        self._flush()

    def discard(self, block: int) -> None:
        """Hint that *block* is no longer needed (TRIM)."""
        self._check_io(block)
        self.stats.discards += 1
        self._discard(block)

    def close(self) -> None:
        """Tear the device down; further I/O raises :class:`DeviceClosedError`."""
        self._closed = True

    # -- out-of-band access ---------------------------------------------------

    def peek(self, block: int) -> bytes:
        """Read a block outside the I/O path; sugar for :meth:`peek_extent`.

        Used by forensic snapshot capture (the adversary images the medium
        directly) and by tests.
        """
        return self.peek_extent(block, 1)

    def poke(self, block: int, data: bytes) -> None:
        """Write a block outside the I/O path (snapshot restore, bulk fill)."""
        if len(data) != self._block_size:
            raise BadBlockSizeError(len(data), self._block_size)
        self.poke_extent(block, data)

    @abstractmethod
    def peek_extent(self, start: int, count: int) -> bytes:
        """Bulk out-of-band read of *count* consecutive blocks.

        RAM-backed devices serve one store slice; pass-through wrappers
        forward to their base device. Like :meth:`peek`, this bypasses
        fault plans and tracing, and whether it books stats or charges
        clocks is each device's documented contract (a plain RAM/eMMC
        medium does neither; a :class:`SubDevice` window rides its base
        device's costed path).
        """

    @abstractmethod
    def poke_extent(self, start: int, data: bytes) -> None:
        """Bulk out-of-band write of consecutive blocks (bulk fill, restore)."""

    def freeze_image(self) -> Optional[FrozenImage]:
        """A content-addressed image of the medium, or ``None``.

        Devices whose backing store freezes incrementally
        (:class:`~repro.blockdev.store.CowOverlayStore`) return a
        :class:`~repro.blockdev.store.FrozenImage` built in O(dirty
        blocks), which snapshot capture and server checkpoints reuse
        without re-reading or re-hashing the medium. Everything else
        returns ``None`` and callers fall back to a :meth:`peek_extent`
        scan. Transparent wrappers forward to their base device.
        """
        return None

    # -- extent (vectored) I/O ----------------------------------------------

    def read_blocks(
        self, start: int, count: int, costs: Optional[ExtentCosts] = None
    ) -> bytes:
        """Read *count* consecutive blocks starting at *start*.

        This is the bio-style extent entry point: the request propagates
        down the stack as one call, stats are booked once, and *costs*
        carries upper layers' per-block clock charges so the leaf device
        can replay them in exact per-block order (see :class:`ExtentCosts`).
        """
        if count <= 0:
            return b""
        if _PER_BLOCK_ONLY and count > 1:
            return self._read_per_block(start, count, costs)
        self._check_extent(start, count)
        data = self._read_extent(start, count, costs)
        if _RECOVERY_DEPTH:
            self.stats.recovery_reads += count
        else:
            self.stats.reads += count
            self.stats.bytes_read += count * self._block_size
        return data

    def write_blocks(
        self, start: int, data: bytes, costs: Optional[ExtentCosts] = None
    ) -> None:
        """Write *data* (a multiple of block_size) at consecutive blocks."""
        if len(data) % self._block_size != 0:
            raise BadBlockSizeError(len(data), self._block_size)
        count = len(data) // self._block_size
        if count == 0:
            return
        if _PER_BLOCK_ONLY and count > 1:
            self._write_per_block(start, data, costs)
            return
        self._check_extent(start, count)
        self._write_extent(start, data, costs)
        if _RECOVERY_DEPTH:
            self.stats.recovery_writes += count
        else:
            self.stats.writes += count
            self.stats.bytes_written += count * self._block_size

    def _read_per_block(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        """Test-oracle path: deliver the extent as single-block extents."""
        return b"".join(
            self.read_blocks(start + i, 1)
            for i in replay_per_block(costs, count)
        )

    def _write_per_block(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        bs = self._block_size
        for i in replay_per_block(costs, len(data) // bs):
            self.write_blocks(start + i, data[i * bs : (i + 1) * bs])

    # -- hooks for subclasses ------------------------------------------------

    @abstractmethod
    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        """Serve a validated multi-block read.

        The one read hook: every request arrives here as an extent —
        single blocks included, since :meth:`read_block` is sugar for a
        one-block extent. Devices that must act block-at-a-time (armed
        fault plans, tracers stamping per-block completion, genuinely
        per-block media models) loop via :func:`replay_per_block`;
        bulk-backed devices serve one store slice and replay *costs*
        once per block.
        """

    @abstractmethod
    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        """Serve a validated multi-block write (see :meth:`_read_extent`)."""

    def _flush(self) -> None:
        pass

    def _discard(self, block: int) -> None:
        pass

    def _check_io(self, block: int) -> None:
        if self._closed:
            raise DeviceClosedError("I/O on closed device")
        if not 0 <= block < self._num_blocks:
            raise OutOfRangeError(block, self._num_blocks)

    def _check_extent(self, start: int, count: int) -> None:
        if self._closed:
            raise DeviceClosedError("I/O on closed device")
        if start < 0 or start + count > self._num_blocks:
            # report the first offending block, like the per-block loop did
            bad = start if not 0 <= start < self._num_blocks else self._num_blocks
            raise OutOfRangeError(bad, self._num_blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self._num_blocks} x {self._block_size}B"
            f"{' closed' if self._closed else ''}>"
        )


class PerBlockDevice(BlockDevice):
    """Base for media that are genuinely block-at-a-time.

    Some devices have no meaningful bulk path: every block of an ORAM
    write is its own shuffle, every FTL page program may trigger garbage
    collection, every log-structured append claims its own page.
    Subclasses implement :meth:`_read_one` / :meth:`_write_one` and
    extents decompose *here, at the leaf*, via :func:`replay_per_block` —
    that is the medium's real semantics, not a compatibility fallback.

    Out-of-band access resolves through the same per-block machinery
    (these media have no raw substrate to image below their mapping), so
    peeks and pokes keep each device's historical cost contract.
    """

    @abstractmethod
    def _read_one(self, block: int) -> bytes:
        """Read one block, paying whatever the medium charges."""

    @abstractmethod
    def _write_one(self, block: int, data: bytes) -> None:
        """Write one block, paying whatever the medium charges."""

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        return b"".join(
            self._read_one(start + i) for i in replay_per_block(costs, count)
        )

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        bs = self._block_size
        for i in replay_per_block(costs, len(data) // bs):
            self._write_one(start + i, data[i * bs : (i + 1) * bs])

    def peek_extent(self, start: int, count: int) -> bytes:
        return b"".join(self._read_one(start + i) for i in range(count))

    def poke_extent(self, start: int, data: bytes) -> None:
        bs = self._block_size
        if len(data) % bs != 0:
            raise BadBlockSizeError(len(data), bs)
        for i in range(len(data) // bs):
            self._write_one(start + i, data[i * bs : (i + 1) * bs])


class RAMBlockDevice(BlockDevice):
    """A block device over a pluggable :class:`BlockStore`.

    Blocks read before ever being written return ``fill`` bytes (zeroes by
    default), mirroring a factory-fresh or discarded flash region.

    *store* selects the backing substrate: ``None`` consults the
    ``REPRO_STORE`` environment variable (default ``ram``), a string names
    a backend (``ram`` / ``mmap`` / ``cow``), and a ready-made
    :class:`BlockStore` is adopted as-is. Every backend is bit-identical
    at this interface; the choice only moves where the bytes live (Python
    heap, a sparse mmap'd file, or a copy-on-write overlay that freezes
    O(dirty) checkpoints).

    ``sparse=True`` asks for a store that keeps only written blocks, so
    experiments can instantiate full phone-sized partitions (e.g. the
    Nexus 4's 13.7 GiB userdata) without allocating that much memory. The
    flag records the *request* — ``raw_bytes``/``load_bytes`` stay
    unavailable on a sparse device regardless of which backend actually
    serves it.
    """

    def __init__(
        self,
        num_blocks: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        fill: int = 0,
        sparse: bool = False,
        store: "BlockStore | str | None" = None,
    ) -> None:
        super().__init__(num_blocks, block_size)
        self._fill_block = bytes([fill]) * block_size
        self._sparse = sparse
        if isinstance(store, BlockStore):
            if (
                store.num_blocks != num_blocks
                or store.block_size != block_size
            ):
                raise ValueError("store geometry does not match device")
            self._store = store
        else:
            self._store = make_store(
                store, num_blocks, block_size, fill=fill, sparse=sparse
            )

    @property
    def sparse(self) -> bool:
        return self._sparse

    @property
    def store(self) -> BlockStore:
        """The backing store (read-mostly; swapping it mid-flight is on you)."""
        return self._store

    def _replay_costs(self, costs: Optional[ExtentCosts], count: int) -> None:
        """Replay *costs* for *count* blocks, one block at a time."""
        if costs is None or costs.empty:
            return
        for _ in range(count):
            costs.replay_pre()
            costs.replay_post()

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        with _deep_span("ram.read_extent", blocks=count):
            self._replay_costs(costs, count)
            return self._store.read_extent(start, count)

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        with _deep_span(
            "ram.write_extent", blocks=len(data) // self._block_size
        ):
            self._replay_costs(costs, len(data) // self._block_size)
            self._store.write_extent(start, data)

    def peek_extent(self, start: int, count: int) -> bytes:
        return self._store.read_extent(start, count)

    def poke_extent(self, start: int, data: bytes) -> None:
        if len(data) % self._block_size != 0:
            raise BadBlockSizeError(len(data), self._block_size)
        self._store.write_extent(start, data)

    def _discard(self, block: int) -> None:
        # restore the fill pattern, matching sparse mode and never-written
        # blocks (a discarded flash region reads back as factory-fresh)
        self._store.discard_extent(block, 1)

    def freeze_image(self) -> Optional[FrozenImage]:
        return self._store.freeze()

    def raw_bytes(self) -> bytes:
        """The full device image (used by snapshot capture); dense only."""
        if self._sparse:
            raise ValueError("raw_bytes is not available on a sparse device")
        return self._store.read_extent(0, self._num_blocks)

    def load_bytes(self, image: bytes) -> None:
        """Replace the device contents with *image* (restore a snapshot)."""
        if self._sparse:
            raise ValueError("load_bytes is not available on a sparse device")
        if len(image) != self.size_bytes:
            raise ValueError(
                f"image size {len(image)} != device size {self.size_bytes}"
            )
        self._store.write_extent(0, image)


class SubDevice(BlockDevice):
    """A contiguous window onto another device (a partition)."""

    def __init__(self, base: BlockDevice, start_block: int, num_blocks: int) -> None:
        if start_block < 0 or start_block + num_blocks > base.num_blocks:
            raise ValueError(
                f"window [{start_block}, {start_block + num_blocks}) exceeds "
                f"base device of {base.num_blocks} blocks"
            )
        super().__init__(num_blocks, base.block_size)
        self._base = base
        self._start = start_block

    @property
    def base(self) -> BlockDevice:
        return self._base

    @property
    def start_block(self) -> int:
        return self._start

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        return self._base.read_blocks(self._start + start, count, costs)

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        self._base.write_blocks(self._start + start, data, costs)

    def peek_extent(self, start: int, count: int) -> bytes:
        # Deliberately rides the base device's *costed* path (stats and
        # clock charges book on the base): bulk passes materialize hidden
        # offsets through SubDevice windows and their measured cost model
        # depends on it.
        base = self._base
        off = self._start + start
        return b"".join(base.read_block(off + i) for i in range(count))

    def poke_extent(self, start: int, data: bytes) -> None:
        bs = self._block_size
        if len(data) % bs != 0:
            raise BadBlockSizeError(len(data), bs)
        base = self._base
        off = self._start + start
        for i in range(len(data) // bs):
            base.write_block(off + i, data[i * bs : (i + 1) * bs])

    def _flush(self) -> None:
        self._base.flush()

    def _discard(self, block: int) -> None:
        self._base.discard(self._start + block)


class ReadOnlyView(BlockDevice):
    """A read-only view of a device, used for forensic snapshot analysis."""

    def __init__(self, base: BlockDevice) -> None:
        super().__init__(base.num_blocks, base.block_size)
        self._base = base

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        return self._base.read_blocks(start, count, costs)

    def peek_extent(self, start: int, count: int) -> bytes:
        # rides the base's costed path, like the historical per-block peek
        return b"".join(
            self._base.read_block(start + i) for i in range(count)
        )

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        raise ReadOnlyDeviceError("write on read-only view")

    def poke_extent(self, start: int, data: bytes) -> None:
        raise ReadOnlyDeviceError("write on read-only view")

    def _discard(self, block: int) -> None:
        raise ReadOnlyDeviceError("discard on read-only view")
