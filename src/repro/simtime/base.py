"""Clock protocol and time-unit helpers.

All times in the simulator are ``float`` seconds.  A :class:`Clock` maps
*true* simulation time to a local reading and back.  Both directions must be
strictly monotonic; the synchronization algorithms rely on invertibility to
implement deadline waits analytically.
"""

from __future__ import annotations

import abc
from math import floor

import numpy as np

SECOND: float = 1.0
MILLISECOND: float = 1e-3
MICROSECOND: float = 1e-6
NANOSECOND: float = 1e-9


class Clock(abc.ABC):
    """A readable, invertible mapping from true time to local time.

    Concrete clocks are either :class:`~repro.simtime.hardware.HardwareClock`
    (the bottom of every stack) or logical clocks layered on top of another
    clock, e.g. :class:`~repro.sync.clocks.GlobalClockLM`.
    """

    @abc.abstractmethod
    def read(self, true_time: float) -> float:
        """Return the clock's reading at the given true simulation time."""

    @abc.abstractmethod
    def invert(self, reading: float) -> float:
        """Return the true time at which this clock shows ``reading``.

        Raises :class:`~repro.errors.ClockError` if the clock is not
        invertible (e.g. a fitted model with slope >= 1).
        """

    def read_many(self, true_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`read` over an array of true times.

        The default is a scalar loop, so every clock supports the array
        protocol; concrete clocks override it with genuinely vectorized
        paths (:class:`~repro.simtime.hardware.HardwareClock`,
        :class:`~repro.sync.clocks.GlobalClockLM`).  Overrides must stay
        bit-identical to per-element :meth:`read` calls — the telemetry
        grids rely on that to swap loops for array calls freely.
        """
        t = np.asarray(true_times, dtype=np.float64)
        return np.array(
            [self.read(float(v)) for v in t], dtype=np.float64
        )

    @property
    def granularity(self) -> float:
        """Smallest representable increment of a reading, in seconds."""
        return 0.0

    @property
    def read_overhead(self) -> float:
        """True-time cost a process pays for one read of this clock."""
        return 0.0

    def __call__(self, true_time: float) -> float:
        return self.read(true_time)


def quantize(value: float, granularity: float) -> float:
    """Round ``value`` down to a multiple of ``granularity`` (0 = no-op).

    Timer APIs report a value that has already *passed*, hence floor rather
    than round-to-nearest.
    """
    if granularity <= 0.0:
        return value
    return floor(value / granularity) * granularity
