"""Simulated eMMC storage.

The real MobiCeal prototype runs over the Nexus 4's internal eMMC, which the
kernel sees as a plain block device behind the flash translation layer. Our
simulator therefore models the *block-device view*: a RAM-backed store whose
operations advance a shared :class:`~repro.blockdev.clock.SimClock` by the
costs of a calibrated :class:`~repro.blockdev.latency.LatencyModel`, with
sequential-access detection (the FTL and on-die caches make sequential I/O
much cheaper than scattered I/O, which is exactly the property the paper's
random-allocation discussion cares about).
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.blockdev.clock import SimClock
from repro.blockdev.device import (
    DEFAULT_BLOCK_SIZE,
    ExtentCosts,
    RAMBlockDevice,
)
from repro.blockdev.latency import FREE, LatencyModel
from repro.blockdev.store import BlockStore
from repro.crypto.rng import Rng


class EMMCDevice(RAMBlockDevice):
    """Store-backed block device with a latency model and a simulated clock."""

    def __init__(
        self,
        num_blocks: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        clock: Optional[SimClock] = None,
        latency: LatencyModel = FREE,
        fill: int = 0,
        sparse: bool = False,
        jitter: float = 0.0,
        jitter_rng: Optional[Rng] = None,
        store: "BlockStore | str | None" = None,
    ) -> None:
        super().__init__(
            num_blocks, block_size, fill=fill, sparse=sparse, store=store
        )
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self._jitter = jitter
        self._jitter_rng = jitter_rng if jitter_rng is not None else Rng(0)
        self._last_read_end: Optional[int] = None
        self._last_write_end: Optional[int] = None

    def _jittered(self, cost: float) -> float:
        """Apply multiplicative measurement noise to one op's cost."""
        if not self._jitter:
            return cost
        scale = 1.0 + self._jitter * (2.0 * self._jitter_rng.random() - 1.0)
        return cost * scale

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        with obs.deep_span("emmc.read_extent", clock=self.clock, blocks=count):
            return self._read_extent_impl(start, count, costs)

    def _read_extent_impl(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        # Only the first block of the extent can pay the random-access
        # penalty; the rest are sequential by construction. Charges are
        # replayed per block so the clock matches the per-block path bit
        # for bit (float addition order matters).
        sequential = self._last_read_end == start
        self._last_read_end = start + count
        bs = self.block_size
        advance = self.clock.advance
        observe = obs.observe_latency
        replay = costs is not None and not costs.empty
        if self._jitter:
            read_cost = self.latency.read_cost
            jittered = self._jittered
            for i in range(count):
                if replay:
                    costs.replay_pre()
                cost = jittered(read_cost(bs, sequential if i == 0 else True))
                advance(cost, "emmc-read")
                observe("emmc.read", cost)
                if replay:
                    costs.replay_post()
        else:
            # jitter-free: the cost is the same for every block after the
            # first, so hoist the model out of the hot loop
            first = self.latency.read_cost(bs, sequential)
            rest = self.latency.read_cost(bs, True)
            cost = first
            for i in range(count):
                if replay:
                    costs.replay_pre()
                advance(cost, "emmc-read")
                observe("emmc.read", cost)
                if replay:
                    costs.replay_post()
                cost = rest
        return self._store.read_extent(start, count)

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        with obs.deep_span(
            "emmc.write_extent",
            clock=self.clock,
            blocks=len(data) // self.block_size,
        ):
            self._write_extent_impl(start, data, costs)

    def _write_extent_impl(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        sequential = self._last_write_end == start
        bs = self.block_size
        count = len(data) // bs
        self._last_write_end = start + count
        advance = self.clock.advance
        observe = obs.observe_latency
        replay = costs is not None and not costs.empty
        if self._jitter:
            write_cost = self.latency.write_cost
            jittered = self._jittered
            for i in range(count):
                if replay:
                    costs.replay_pre()
                cost = jittered(write_cost(bs, sequential if i == 0 else True))
                advance(cost, "emmc-write")
                observe("emmc.write", cost)
                if replay:
                    costs.replay_post()
        else:
            first = self.latency.write_cost(bs, sequential)
            rest = self.latency.write_cost(bs, True)
            cost = first
            for i in range(count):
                if replay:
                    costs.replay_pre()
                advance(cost, "emmc-write")
                observe("emmc.write", cost)
                if replay:
                    costs.replay_post()
                cost = rest
        self._store.write_extent(start, data)

    def _flush(self) -> None:
        # Model a cache flush as one write-op worth of latency.
        self.clock.advance(self.latency.write_op_s, "emmc-flush")

    def reset_locality(self) -> None:
        """Forget sequential-access state (e.g. after a remount)."""
        self._last_read_end = None
        self._last_write_end = None
