"""Piecewise-linear hardware clocks.

A :class:`HardwareClock` converts true simulation time into the local
reading a process observes.  Within each fixed-length *segment* of true time
the clock runs at a constant rate ``(1 + skew_i)`` supplied by a
:class:`~repro.simtime.drift.DriftModel`; across segments the rate changes,
producing the non-linear long-term drift of Fig. 2 in the paper.

Because the mapping is piecewise linear and strictly increasing, it is
analytically invertible.  The engine uses :meth:`HardwareClock.invert` (and
the affine inverses of the logical-clock layers above it) to translate a
"busy-wait until my global clock reads T" into a single scheduled wake-up.
"""

from __future__ import annotations

import bisect
from math import floor

import numpy as np

from repro.errors import ClockError
from repro.simtime.base import Clock
from repro.simtime.drift import ConstantDrift, DriftModel


class HardwareClock(Clock):
    """A local oscillator with offset, skew, drift, and read granularity.

    Parameters
    ----------
    offset:
        Local reading at true time 0 (seconds).  ``clock_gettime`` offsets
        between nodes can be hours (boot-time differences); ``gettimeofday``
        offsets are sub-millisecond (NTP).
    drift:
        Per-segment skew source.  Defaults to a perfect clock.
    segment_length:
        True-time length of each constant-rate segment (seconds).
    granularity:
        Reading resolution (e.g. 1 ns for ``clock_gettime``).
    read_overhead:
        True-time cost of one timer call, charged by the process context.
    """

    def __init__(
        self,
        offset: float = 0.0,
        drift: DriftModel | None = None,
        segment_length: float = 1.0,
        granularity: float = 0.0,
        read_overhead: float = 0.0,
    ) -> None:
        if segment_length <= 0.0:
            raise ValueError("segment_length must be > 0")
        if granularity < 0.0 or read_overhead < 0.0:
            raise ValueError("granularity/read_overhead must be >= 0")
        self.offset = float(offset)
        self.drift = drift if drift is not None else ConstantDrift(0.0)
        self.segment_length = float(segment_length)
        self._granularity = float(granularity)
        self._read_overhead = float(read_overhead)
        # Cumulative local time at each segment boundary; _local_at[i] is the
        # exact local reading at true time i * segment_length.
        self._local_at: list[float] = [self.offset]
        self._skews: list[float] = []

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    @property
    def granularity(self) -> float:
        return self._granularity

    @property
    def read_overhead(self) -> float:
        return self._read_overhead

    def _ensure_segments(self, upto_index: int) -> None:
        """Extend the boundary table so segment ``upto_index`` exists."""
        while len(self._skews) <= upto_index:
            i = len(self._skews)
            skew = self.drift.skew_for_segment(i)
            if not -1.0 < skew < 1.0:
                raise ClockError(f"drift produced skew {skew} outside (-1, 1)")
            self._skews.append(skew)
            self._local_at.append(
                self._local_at[-1] + (1.0 + skew) * self.segment_length
            )

    def read_raw(self, true_time: float) -> float:
        """Exact (un-quantized) local time at ``true_time``."""
        if true_time < 0.0:
            raise ClockError(f"true time must be >= 0, got {true_time}")
        idx = int(true_time / self.segment_length)
        self._ensure_segments(idx)
        t0 = idx * self.segment_length
        return self._local_at[idx] + (1.0 + self._skews[idx]) * (true_time - t0)

    def read(self, true_time: float) -> float:
        """``quantize(read_raw(true_time), granularity)`` in one body.

        The engine's clock reads all land here, so the three calls are
        written out: the same check, the same expression in the same
        operation order, the same floor; the segment table is consulted
        only when the index is new.
        """
        if true_time < 0.0:
            raise ClockError(f"true time must be >= 0, got {true_time}")
        length = self.segment_length
        idx = int(true_time / length)
        skews = self._skews
        if idx >= len(skews):
            self._ensure_segments(idx)
        value = self._local_at[idx] + (1.0 + skews[idx]) * (
            true_time - idx * length
        )
        granularity = self._granularity
        if granularity <= 0.0:
            return value
        return floor(value / granularity) * granularity

    def read_raw_many(self, true_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`read_raw` over an array of true times.

        Bit-identical to a per-element scalar loop: both paths evaluate
        ``local_at[i] + (1 + skew[i]) * (t - i * segment_length)`` in the
        same IEEE-754 double operation order, so batch-serving layers can
        cache and replay answers without drifting from the scalar clock.
        """
        t = np.asarray(true_times, dtype=np.float64)
        if t.size == 0:
            return np.empty(0, dtype=np.float64)
        if float(t.min()) < 0.0:
            raise ClockError(
                f"true time must be >= 0, got {float(t.min())}"
            )
        idx = (t / self.segment_length).astype(np.int64)
        self._ensure_segments(int(idx.max()))
        local_at = np.asarray(self._local_at, dtype=np.float64)[idx]
        skews = np.asarray(self._skews, dtype=np.float64)[idx]
        t0 = idx * self.segment_length
        return local_at + (1.0 + skews) * (t - t0)

    def read_many(self, true_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`read`: batch raw reads, then quantize.

        ``floor(v / g) * g`` on a float64 array matches the scalar
        :func:`~repro.simtime.base.quantize` bit for bit.
        """
        raw = self.read_raw_many(true_times)
        if self._granularity <= 0.0:
            return raw
        return np.floor(raw / self._granularity) * self._granularity

    def invert(self, reading: float) -> float:
        """True time at which the (raw) local clock shows ``reading``."""
        # Tolerate float round-off from affine layers above (readings can be
        # ~1e5 s, where double precision leaves ~1e-11 s residues).
        epoch = self._local_at[0]
        tolerance = 1e-9 * max(1.0, abs(epoch))
        if reading < epoch:
            if reading >= epoch - tolerance:
                return 0.0
            raise ClockError(
                f"reading {reading} precedes the clock's value at true time 0"
            )
        # Extend segments until the boundary table brackets the reading.
        while self._local_at[-1] <= reading:
            self._ensure_segments(len(self._skews) + 64)
        idx = bisect.bisect_right(self._local_at, reading) - 1
        skew = self._skews[idx]
        t0 = idx * self.segment_length
        return t0 + (reading - self._local_at[idx]) / (1.0 + skew)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HardwareClock(offset={self.offset:g}, drift={self.drift!r}, "
            f"segment_length={self.segment_length:g})"
        )
