"""Extent path vs per-block path equivalence (the fidelity invariant).

The extent fast path must be invisible to the simulation: identical
device images, identical simulated-clock readings and identical IOStats
at every layer — only wall-clock time may change. These properties drive
random op mixes through two identically-seeded stacks, one using the
extent path and one forced through the legacy per-block decomposition
via :func:`per_block_baseline`, and require bit-exact agreement.

The vectorized NumPy core adds a second axis to the same invariant: the
batched keystream and array-backed allocator code must be unobservable
next to the pure-Python reference core (:func:`reference_core`). The
``*_core_equivalence`` tests run every stack through the full cross
product {numpy, reference} x {extent, per-block} and require one single
signature; under ``REPRO_NO_NUMPY=1`` the numpy leg degenerates to the
reference leg and the tests still pass (trivially), so the battery is
valid in both CI matrix legs.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.blockdev import (
    EMMCDevice,
    LatencyModel,
    RAMBlockDevice,
    STORE_KINDS,
    SimClock,
    capture,
    per_block_baseline,
)
from repro.blockdev.faults import FaultPlan, FaultyBlockDevice
from repro.blockdev.trace import TracingDevice
from repro.crypto.rng import Rng
from repro.dm import create_crypt_device
from repro.dm.crypt import NEXUS4_CRYPTO_BYTE_COST_S
from repro.dm.thin import ThinPool
from repro.dm.thin.pool import ThinCosts
from repro.errors import PowerCutError, TransientIOError
from repro.fs.ext4 import Ext4Filesystem
from repro.util.npgate import reference_core

BS = 4096
VOLUME_BLOCKS = 64
LATENCY = LatencyModel(name="equiv-test")  # non-zero costs + random penalties
THIN_COSTS = ThinCosts(lookup_read_s=30e-6, lookup_write_s=2e-6,
                       provision_s=6e-6)


def _payload(tag: int, count: int) -> bytes:
    return bytes([(tag * 37 + i) % 251 for i in range(BS)]) * count


def _build_block_stack(seed: int, store=None):
    """eMMC <- thin pool (random alloc + dummy hook) <- dm-crypt."""
    clock = SimClock()
    emmc = EMMCDevice(
        192, clock=clock, latency=LATENCY, jitter=0.2, jitter_rng=Rng(seed),
        store=store,
    )
    pool = ThinPool.format(
        RAMBlockDevice(16, store=store), emmc,
        allocation="random", rng=Rng(seed + 1),
        clock=clock, costs=THIN_COSTS,
    )
    pool.create_thin(1, VOLUME_BLOCKS)
    pool.create_thin(2, VOLUME_BLOCKS)
    noise_rng = Rng(seed + 2)

    def hook(p, vol_id):
        p.append_noise(2, noise_rng.random_bytes(BS), noise_rng)

    pool.set_dummy_write_hook(hook)
    crypt = create_crypt_device(
        "c", pool.get_thin(1), key=bytes(range(32)), clock=clock,
        crypto_byte_cost_s=NEXUS4_CRYPTO_BYTE_COST_S,
    )
    return clock, emmc, pool, crypt


def _run_block_ops(stack, ops):
    clock, emmc, pool, crypt = stack
    reads = []
    for tag, (is_write, start, count) in enumerate(ops):
        count = min(count, VOLUME_BLOCKS - start)
        if count <= 0:
            continue
        if is_write:
            crypt.write_blocks(start, _payload(tag, count))
        else:
            reads.append(crypt.read_blocks(start, count))
    return reads


def _block_signature(stack):
    clock, emmc, pool, crypt = stack
    return (
        clock.now,
        hashlib.sha256(emmc.raw_bytes()).hexdigest(),
        emmc.stats.as_dict(),
        crypt.stats.as_dict(),
        vars(pool.stats),
    )


op_lists = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, VOLUME_BLOCKS - 1),
        st.integers(1, 24),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), ops=op_lists)
def test_block_stack_extent_equivalence(seed, ops):
    """crypt-over-thin-over-eMMC: extent path == per-block path, bit-exact."""
    fast = _build_block_stack(seed)
    fast_reads = _run_block_ops(fast, ops)

    slow = _build_block_stack(seed)
    with per_block_baseline():
        slow_reads = _run_block_ops(slow, ops)

    assert fast_reads == slow_reads
    assert _block_signature(fast) == _block_signature(slow)


def _build_fs_stack(seed: int, journal: bool):
    """ext4 <- dm-crypt <- traced eMMC."""
    clock = SimClock()
    emmc = EMMCDevice(
        256, clock=clock, latency=LATENCY, jitter=0.1, jitter_rng=Rng(seed)
    )
    traced = TracingDevice(emmc, clock=clock)
    crypt = create_crypt_device(
        "c", traced, key=bytes(reversed(range(32))), clock=clock,
        crypto_byte_cost_s=NEXUS4_CRYPTO_BYTE_COST_S,
    )
    fs = Ext4Filesystem(crypt, journal=journal)
    fs.format()
    fs.mount()
    return clock, emmc, traced, crypt, fs


def _run_fs_ops(stack, ops):
    clock, emmc, traced, crypt, fs = stack
    reads = []
    for tag, (file_idx, offset, size, do_flush) in enumerate(ops):
        name = f"/f{file_idx}"
        handle = fs.open(name, "a")
        handle.seek(offset)
        handle.write((_payload(tag, 1) * (size // BS + 1))[:size])
        handle.close()
        if do_flush:
            fs.flush()
    for file_idx in sorted({f for f, _, _, _ in ops}):
        handle = fs.open(f"/f{file_idx}", "r")
        reads.append(handle.read())
        handle.close()
    fs.unmount()
    return reads


def _fs_signature(stack):
    clock, emmc, traced, crypt, fs = stack
    return (
        clock.now,
        hashlib.sha256(emmc.raw_bytes()).hexdigest(),
        emmc.stats.as_dict(),
        traced.stats.as_dict(),
        crypt.stats.as_dict(),
        [(e.op, e.block, e.at) for e in traced.events],
    )


fs_op_lists = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 40_000),
        st.integers(1, 60_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), journal=st.booleans(), ops=fs_op_lists)
def test_ext4_extent_equivalence(seed, journal, ops):
    """ext4-over-crypt-over-eMMC (traced): extent path == per-block path."""
    fast = _build_fs_stack(seed, journal)
    fast_reads = _run_fs_ops(fast, ops)

    slow = _build_fs_stack(seed, journal)
    with per_block_baseline():
        slow_reads = _run_fs_ops(slow, ops)

    assert fast_reads == slow_reads
    assert _fs_signature(fast) == _fs_signature(slow)


# ---------------------------------------------------------------------------
# NumPy core vs pure-Python reference core
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), ops=op_lists)
def test_block_stack_core_equivalence(seed, ops):
    """crypt-thin-eMMC under {numpy, reference} x {extent, per-block}.

    The vectorized keystream engine and array-backed allocator must land
    on the same bytes, stats and simulated clock as the pure-Python
    reference — one signature across all four legs.
    """
    legs = []
    for use_reference in (False, True):
        for use_per_block in (False, True):
            stack = _build_block_stack(seed)
            if use_reference:
                with reference_core():
                    if use_per_block:
                        with per_block_baseline():
                            reads = _run_block_ops(stack, ops)
                    else:
                        reads = _run_block_ops(stack, ops)
            elif use_per_block:
                with per_block_baseline():
                    reads = _run_block_ops(stack, ops)
            else:
                reads = _run_block_ops(stack, ops)
            legs.append((reads, _block_signature(stack)))
    assert all(leg == legs[0] for leg in legs[1:])


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), journal=st.booleans(), ops=fs_op_lists)
def test_ext4_core_equivalence(seed, journal, ops):
    """ext4-over-crypt-over-eMMC: numpy core == reference core, bit-exact."""
    fast = _build_fs_stack(seed, journal)
    fast_reads = _run_fs_ops(fast, ops)

    ref = _build_fs_stack(seed, journal)
    with reference_core():
        ref_reads = _run_fs_ops(ref, ops)

    assert fast_reads == ref_reads
    assert _fs_signature(fast) == _fs_signature(ref)


def test_edge_extents_all_cores():
    """Zero-length, single-block, partial-tail and clamped extents.

    Deterministic sweep of the shapes Hypothesis hits rarely: empty
    payloads (no-ops at the entry point), one-block extents below the
    batching cutoff, tails clamped at the volume end, and a misaligned
    run that crosses provisioning boundaries mid-extent.
    """
    edge_ops = [
        (True, VOLUME_BLOCKS - 1, 24),   # clamps to a single tail block
        (False, 0, 1),                   # single-block read
        (True, 0, 1),                    # single-block write
        (False, VOLUME_BLOCKS - 3, 17),  # partial tail, clamped mid-extent
        (True, 5, 23),                   # misaligned start, odd length
        (False, 5, 23),
        (True, 0, VOLUME_BLOCKS),        # whole volume in one extent
        (False, 0, VOLUME_BLOCKS),
    ]

    def run(stack):
        reads = _run_block_ops(stack, edge_ops)
        clock, emmc, pool, crypt = stack
        # explicit zero-length extents: must be byte-free no-ops
        assert crypt.read_blocks(3, 0) == b""
        crypt.write_blocks(3, b"")
        return reads

    legs = []
    for use_reference in (False, True):
        for use_per_block in (False, True):
            stack = _build_block_stack(424242)
            if use_reference:
                with reference_core():
                    if use_per_block:
                        with per_block_baseline():
                            reads = run(stack)
                    else:
                        reads = run(stack)
            elif use_per_block:
                with per_block_baseline():
                    reads = run(stack)
            else:
                reads = run(stack)
            legs.append((reads, _block_signature(stack)))
    assert all(leg == legs[0] for leg in legs[1:])


# ---------------------------------------------------------------------------
# Fault-injection interleavings
# ---------------------------------------------------------------------------


def _build_faulty_stack(seed: int, plan: FaultPlan, store=None):
    """eMMC <- fault wrapper <- thin pool <- dm-crypt, plan armed."""
    clock = SimClock()
    emmc = EMMCDevice(
        192, clock=clock, latency=LATENCY, jitter=0.2, jitter_rng=Rng(seed),
        store=store,
    )
    faulty = FaultyBlockDevice(emmc, plan=plan)
    pool = ThinPool.format(
        RAMBlockDevice(16, store=store), faulty,
        allocation="random", rng=Rng(seed + 1),
        clock=clock, costs=THIN_COSTS,
    )
    pool.create_thin(1, VOLUME_BLOCKS)
    crypt = create_crypt_device(
        "c", pool.get_thin(1), key=bytes(range(32)), clock=clock,
        crypto_byte_cost_s=NEXUS4_CRYPTO_BYTE_COST_S,
    )
    return clock, emmc, faulty, pool, crypt


def _run_faulty_ops(stack, ops):
    """Drive *ops*, recording each op's fault outcome in order."""
    clock, emmc, faulty, pool, crypt = stack
    outcomes = []
    for tag, (is_write, start, count) in enumerate(ops):
        count = min(count, VOLUME_BLOCKS - start)
        if count <= 0:
            continue
        try:
            if is_write:
                crypt.write_blocks(start, _payload(tag, count))
                outcomes.append(("w-ok", tag))
            else:
                outcomes.append(("r", tag, crypt.read_blocks(start, count)))
        except TransientIOError as exc:
            outcomes.append(("transient", tag, str(exc)))
        except PowerCutError:
            outcomes.append(("power-cut", tag, faulty.writes_since_arm))
            faulty.revive(disarm=False)
    return outcomes


def _faulty_signature(stack, cross_path=False):
    """Observable state after a faulted run.

    With *cross_path* the upper-layer IOStats are left out: when a fault
    kills an op mid-extent, the per-block path has already booked the
    completed blocks at layers above the fault while the extent path
    books only on full success — a long-standing (and documented-here)
    semantic difference of exceptional partial completion, orthogonal to
    the numpy/reference core split. Leaf stats, the simulated clock, the
    medium image and all fault bookkeeping must still agree exactly.
    """
    clock, emmc, faulty, pool, crypt = stack
    sig = [
        clock.now,
        hashlib.sha256(emmc.raw_bytes()).hexdigest(),
        emmc.stats.as_dict(),
        faulty.writes_since_arm,
        faulty.torn_write,
        faulty.dropped_writes,
        faulty.plan.errors_injected if faulty.plan else None,
    ]
    if not cross_path:
        sig.append(crypt.stats.as_dict())
    return tuple(sig)


faulty_op_lists = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, VOLUME_BLOCKS - 1),
        st.integers(1, 24),
    ),
    min_size=3,
    max_size=10,
)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ops=faulty_op_lists,
    cut_after=st.one_of(st.none(), st.integers(0, 80)),
    error_rate=st.sampled_from([0.0, 0.05, 0.2]),
)
def test_faulty_interleaving_equivalence(seed, ops, cut_after, error_rate):
    """Armed fault plans: every core x path leg sees the same failures.

    An armed :class:`FaultyBlockDevice` decomposes extents per block and
    draws from the plan RNG per op, so transient errors, power cuts and
    torn writes must land at identical indices whether the surrounding
    stack batches its replay or not, on either core. Core equivalence
    (numpy vs reference) is asserted on the full signature; the extent
    vs per-block comparison drops upper-layer stats (see
    :func:`_faulty_signature`).
    """

    def plan():
        return FaultPlan(
            seed=seed,
            power_cut_after_writes=cut_after,
            torn_writes=True,
            write_error_rate=error_rate,
            read_error_rate=error_rate / 2,
            transient_error_budget=4,
        )

    legs = {}
    for use_reference in (False, True):
        for use_per_block in (False, True):
            stack = _build_faulty_stack(seed, plan())
            if use_reference:
                with reference_core():
                    if use_per_block:
                        with per_block_baseline():
                            out = _run_faulty_ops(stack, ops)
                    else:
                        out = _run_faulty_ops(stack, ops)
            elif use_per_block:
                with per_block_baseline():
                    out = _run_faulty_ops(stack, ops)
            else:
                out = _run_faulty_ops(stack, ops)
            legs[(use_reference, use_per_block)] = (out, stack)

    # core equivalence: full signature, per path mode
    for per_block in (False, True):
        numpy_out, numpy_stack = legs[(False, per_block)]
        ref_out, ref_stack = legs[(True, per_block)]
        assert numpy_out == ref_out
        assert _faulty_signature(numpy_stack) == _faulty_signature(ref_stack)

    # path equivalence: outcomes, clock, image, leaf stats, fault state
    base_out, base_stack = legs[(False, False)]
    base_sig = _faulty_signature(base_stack, cross_path=True)
    for key, (out, stack) in legs.items():
        assert out == base_out, key
        assert _faulty_signature(stack, cross_path=True) == base_sig, key


# ---------------------------------------------------------------------------
# BlockStore backends: {ram, mmap, cow} must be unobservable
# ---------------------------------------------------------------------------
#
# The store is a pure byte container below the extent IR; swapping it must
# leave every observable — returned reads, device images, simulated clocks,
# IOStats, RNG draw order — bit-identical, on either compute core. These
# legs run the same stacks as above across the full
# {ram, mmap, cow} x {numpy, reference} grid.


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), ops=op_lists)
def test_block_stack_store_equivalence(seed, ops):
    """crypt-thin-eMMC over every BlockStore backend x both cores."""
    legs = []
    for store in STORE_KINDS:
        for use_reference in (False, True):
            stack = _build_block_stack(seed, store=store)
            if use_reference:
                with reference_core():
                    reads = _run_block_ops(stack, ops)
            else:
                reads = _run_block_ops(stack, ops)
            legs.append(((store, use_reference), reads,
                         _block_signature(stack)))
    for key, reads, sig in legs[1:]:
        assert reads == legs[0][1], key
        assert sig == legs[0][2], key


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ops=faulty_op_lists,
    cut_after=st.one_of(st.none(), st.integers(0, 80)),
    error_rate=st.sampled_from([0.0, 0.2]),
)
def test_faulty_store_equivalence(seed, ops, cut_after, error_rate):
    """Armed fault plans land identically on every store backend.

    Transient errors, power cuts and torn writes are drawn per block from
    the plan RNG; the backend under the medium must not shift a single
    draw, so every outcome (including torn-write contents and power-cut
    write counters) agrees bit-exactly across backends.
    """
    legs = []
    for store in STORE_KINDS:
        stack = _build_faulty_stack(
            seed,
            FaultPlan(
                seed=seed,
                power_cut_after_writes=cut_after,
                torn_writes=True,
                write_error_rate=error_rate,
                read_error_rate=error_rate / 2,
                transient_error_budget=4,
            ),
            store=store,
        )
        out = _run_faulty_ops(stack, ops)
        legs.append((store, out, _faulty_signature(stack)))
    for store, out, sig in legs[1:]:
        assert out == legs[0][1], store
        assert sig == legs[0][2], store


def _pde_session_signature(store):
    """A full PDE life: init, boot, write, crash, re-attach, recovery boot.

    Mirrors the server's lifecycle ops (the same call sequence
    ``ServerDevice`` makes), so this covers the crash/attach boots the
    daemon relies on, per store backend.
    """
    from repro.android.framework import PhoneState
    from repro.android.phone import Phone
    from repro.core.config import MobiCealConfig
    from repro.core.system import MobiCealSystem

    config = MobiCealConfig(num_volumes=4)
    phone = Phone(seed=13, store=store)
    system = MobiCealSystem(phone, config)
    phone.framework.power_on()
    system.initialize("decoy", hidden_passwords=("hidden",))
    # initialize() ends at the pre-boot prompt; no power_on needed
    system.boot_with_password("decoy")
    system.start_framework()
    system.store_file("/sdcard/a.txt", b"a" * 5000)
    system.sync()
    system.crash()
    # forensic re-attach over the same medium, then a recovery boot
    if phone.framework.state is not PhoneState.POWER_OFF:
        phone.framework.shutdown()
    system = MobiCealSystem.attach(phone, config)
    system.power_on()
    system.boot_with_password("decoy", after_crash=True)
    system.start_framework()
    system.store_file("/sdcard/b.txt", b"b" * 3000)
    assert system.read_file("/sdcard/a.txt") == b"a" * 5000
    system.sync()
    snap = capture(phone.userdata, label="end", taken_at=phone.clock.now)
    return phone.clock.now, snap.digest(), snap.manifest_digest()


def test_crash_attach_boot_store_equivalence():
    """Crash + attach + recovery boot is backend-invariant.

    The end-of-session image digest, its manifest digest and the final
    simulated clock must agree across all three backends — including the
    CoW leg, whose capture comes from ``freeze_image()`` rather than the
    peek scan.
    """
    legs = [(store, _pde_session_signature(store)) for store in STORE_KINDS]
    for store, sig in legs[1:]:
        assert sig == legs[0][1], store
