"""Simulated clock.

Every component of the reproduced storage stack — block devices, the device
mapper, the Android framework model — shares one :class:`SimClock`. Block
operations and orchestration steps *advance* the clock by modeled costs
instead of sleeping, so the timing experiments of the paper (Fig. 4 and
Table II) run deterministically and in milliseconds of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List


@dataclass
class SimClock:
    """A monotonically advancing simulated clock, in seconds.

    The clock also keeps a list of observers so tests and the bench harness
    can trace where simulated time is spent.
    """

    now: float = 0.0
    _observers: List[Callable[[float, str], None]] = field(default_factory=list)

    def advance(self, seconds: float, reason: str = "") -> None:
        """Advance the clock by *seconds* (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds
        for observer in self._observers:
            observer(seconds, reason)

    def subscribe(self, observer: Callable[[float, str], None]) -> None:
        """Register *observer(delta, reason)* to be called on each advance."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[float, str], None]) -> None:
        self._observers.remove(observer)


class Stopwatch:
    """Measure a span of simulated time.

    >>> clock = SimClock()
    >>> with Stopwatch(clock) as sw:
    ...     clock.advance(1.5)
    >>> sw.elapsed
    1.5
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: float = 0.0
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = self._clock.now - self._start
