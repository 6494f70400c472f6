"""Crash points land at the same write index on either core.

An armed :class:`FaultyBlockDevice` decomposes every extent per block,
so a power cut must interrupt the same write index, tear the same
sectors and leave the simulated clock at the same reading whether the
NumPy core or the pure-Python reference core runs underneath. Every
assertion compares with ``==``: a failure means one core changed the
order of writes or clock charges.
"""

import pytest

from repro.blockdev import EMMCDevice, LatencyModel, SimClock
from repro.blockdev.faults import FaultPlan, FaultyBlockDevice
from repro.errors import PowerCutError
from repro.util.npgate import reference_core


def _crash_indices(cut_after: int, use_reference: bool):
    """Where does a power cut land, and what does it tear?"""
    clock = SimClock()
    emmc = EMMCDevice(256, clock=clock, latency=LatencyModel())
    plan = FaultPlan(seed=3, power_cut_after_writes=cut_after, torn_writes=True)
    faulty = FaultyBlockDevice(emmc, plan=plan)
    payload = bytes((i % 251) for i in range(64 * emmc.block_size))

    def run():
        hits = []
        for start in (0, 64, 128):
            try:
                faulty.write_blocks(start, payload)
            except PowerCutError as exc:
                hits.append((start, faulty.writes_since_arm, str(exc)))
                faulty.revive(disarm=False)
        return hits

    if use_reference:
        with reference_core():
            hits = run()
    else:
        hits = run()
    return hits, faulty.torn_write, clock.now


@pytest.mark.parametrize("cut_after", [0, 1, 17, 63, 100])
def test_crash_point_indices_unchanged_by_core(cut_after):
    """Power cuts interrupt the same write index on either core.

    The vectorized core must not change *when* a fault fires: an armed
    FaultyBlockDevice decomposes extents per block, so the interrupted
    write index, the torn-write sector count and the clock at the cut
    are identical with and without the NumPy core underneath.
    """
    assert _crash_indices(cut_after, False) == _crash_indices(cut_after, True)
