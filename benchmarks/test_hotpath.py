"""Extent fast-path throughput — wall-clock cost of simulating I/O.

Every other bench in this suite measures *simulated* time; this one
measures how fast the simulator itself moves blocks, which is what bounds
trace length at fixed wall-clock budget (Sec. VI-scale experiments). Each
scenario drives the same operation stream through the extent path and
through the legacy per-block decomposition (:func:`per_block_baseline`)
and reports wall-clock blocks-simulated-per-second for both.

Fidelity first: both paths must land on the identical simulated clock —
asserted here for every scenario — so the speedup is free.

Unlike the other BENCH_*.json payloads, ``BENCH_hotpath.json`` contains
wall-clock measurements and is therefore machine-dependent: CI runs this
bench as a smoke test but excludes the file from the byte-drift check.
"""

import time

from repro.blockdev import (
    EMMCDevice,
    LatencyModel,
    RAMBlockDevice,
    SimClock,
    per_block_baseline,
)
from repro.crypto.rng import Rng
from repro.crypto.stream import Blake2Ctr
from repro.dm import create_crypt_device
from repro.dm.crypt import NEXUS4_CRYPTO_BYTE_COST_S
from repro.dm.thin import ThinPool

BS = 4096
EXTENT_BLOCKS = 64
ROUNDS = 40
PAYLOAD = b"\x5a" * (BS * EXTENT_BLOCKS)

#: The acceptance bar for the headline microbench (64-block sequential
#: write on the raw eMMC model): the extent path must be >= 3x faster.
SEQ_WRITE_MIN_SPEEDUP = 3.0

#: The vectorized-core acceptance bar: a 64-block sequential write through
#: dm-crypt (keystream cache warm, whole-extent XOR) must be >= 5x
#: faster than the pure-Python per-block reference.
CRYPT_SEQ_WRITE_MIN_SPEEDUP = 5.0


def _emmc(num_blocks: int = 2 * EXTENT_BLOCKS):
    clock = SimClock()
    return EMMCDevice(num_blocks, clock=clock, latency=LatencyModel()), clock


def _scenario_emmc_seq_write():
    dev, clock = _emmc()
    return clock, lambda: dev.write_blocks(0, PAYLOAD)


def _scenario_emmc_rand_read():
    dev, clock = _emmc(1024)
    dev.write_blocks(0, b"\x33" * (BS * 1024))
    offsets = [o for o in Rng(11).sample(range(1016), 8)]

    def op():
        for o in offsets:
            dev.read_blocks(o, 8)

    return clock, op


def _scenario_crypt_seq_write():
    clock = SimClock()
    emmc = EMMCDevice(2 * EXTENT_BLOCKS, clock=clock, latency=LatencyModel())
    crypt = create_crypt_device(
        "hot", emmc, key=bytes(32), clock=clock,
        crypto_byte_cost_s=NEXUS4_CRYPTO_BYTE_COST_S,
    )
    return clock, lambda: crypt.write_blocks(0, PAYLOAD)


def _scenario_crypt_seq_write_cold():
    # Same stack, but the keystream cache is dropped before every round,
    # so this row prices the cache-miss path (first touch of an extent)
    # honestly instead of letting best-of-N settle on warm rounds.
    clock = SimClock()
    emmc = EMMCDevice(2 * EXTENT_BLOCKS, clock=clock, latency=LatencyModel())
    cipher = Blake2Ctr(bytes(32))
    crypt = create_crypt_device(
        "hot-cold", emmc, key=bytes(32), clock=clock,
        crypto_byte_cost_s=NEXUS4_CRYPTO_BYTE_COST_S,
        cipher_factory=lambda key: cipher,
    )

    def op():
        cipher.clear_keystream_cache()
        crypt.write_blocks(0, PAYLOAD)

    return clock, op


def _scenario_thin_seq_read():
    clock = SimClock()
    emmc = EMMCDevice(4 * EXTENT_BLOCKS, clock=clock, latency=LatencyModel())
    pool = ThinPool.format(
        RAMBlockDevice(16), emmc, allocation="sequential", clock=clock
    )
    pool.create_thin(1, 2 * EXTENT_BLOCKS)
    thin = pool.get_thin(1)
    thin.write_blocks(0, PAYLOAD)  # provision a contiguous mapped run
    return clock, lambda: thin.read_blocks(0, EXTENT_BLOCKS)


SCENARIOS = [
    ("emmc_seq_write", _scenario_emmc_seq_write, EXTENT_BLOCKS),
    ("emmc_rand_read", _scenario_emmc_rand_read, 64),
    ("crypt_seq_write", _scenario_crypt_seq_write, EXTENT_BLOCKS),
    ("crypt_seq_write_cold", _scenario_crypt_seq_write_cold, EXTENT_BLOCKS),
    ("thin_seq_read", _scenario_thin_seq_read, EXTENT_BLOCKS),
]


def _best_of(op, rounds: int) -> float:
    """Best-of-N wall time for one invocation of *op* (noise floor)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(build, blocks_per_op: int):
    clock_fast, op_fast = build()
    fast_s = _best_of(op_fast, ROUNDS)
    sim_fast = clock_fast.now

    clock_slow, op_slow = build()
    with per_block_baseline():
        slow_s = _best_of(op_slow, ROUNDS)
        sim_slow = clock_slow.now

    # the whole point of the fast path: wall time drops, simulated
    # time (same ops, same order, same floats) does not move at all
    assert sim_fast == sim_slow, (sim_fast, sim_slow)

    return {
        "blocks_per_op": blocks_per_op,
        "extent_wall_s": fast_s,
        "per_block_wall_s": slow_s,
        "extent_blocks_per_s": blocks_per_op / fast_s,
        "per_block_blocks_per_s": blocks_per_op / slow_s,
        "speedup": slow_s / fast_s,
    }


def test_hotpath_speedup(benchmark, save_result, save_json):
    """Extent path vs per-block path, wall-clock, four stack shapes."""
    rows = {}
    for name, build, blocks_per_op in SCENARIOS:
        rows[name] = _measure(build, blocks_per_op)

    clock, op = _scenario_emmc_seq_write()
    benchmark.pedantic(op, rounds=10, iterations=1)

    lines = [
        "extent fast path: wall-clock blocks simulated per second",
        f"{'scenario':<22} {'extent':>12} {'per-block':>12} {'speedup':>8}",
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<22} {r['extent_blocks_per_s']:>12.0f} "
            f"{r['per_block_blocks_per_s']:>12.0f} {r['speedup']:>7.1f}x"
        )
    save_result("hotpath", "\n".join(lines))
    save_json("hotpath", {"scenarios": rows, "rounds": ROUNDS})
    benchmark.extra_info["speedups"] = {
        name: round(r["speedup"], 2) for name, r in rows.items()
    }

    # headline acceptance: 64-block sequential eMMC write
    assert rows["emmc_seq_write"]["speedup"] >= SEQ_WRITE_MIN_SPEEDUP
    # vectorized-core acceptance: dm-crypt sequential write, warm cache
    assert (
        rows["crypt_seq_write"]["speedup"] >= CRYPT_SEQ_WRITE_MIN_SPEEDUP
    ), rows["crypt_seq_write"]["speedup"]
    # every vectored scenario must at least not regress
    for name, r in rows.items():
        assert r["speedup"] >= 1.0, (name, r["speedup"])
