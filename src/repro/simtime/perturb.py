"""Clock perturbation wrappers: offset steps and frequency excursions.

Real clocks do not merely drift — they get *disciplined*.  An NTP daemon
that decides the local clock is wrong applies a step (a discontinuous
jump of the reading), and a thermal event bends the oscillator frequency
for tens of seconds.  Both effects invalidate a previously fitted linear
clock model instantly, which is exactly what the fault-injection
subsystem (:mod:`repro.faults`) wants to provoke.

Two composable pieces:

* :class:`SteppedClock` wraps any :class:`~repro.simtime.hardware.HardwareClock`
  and adds offset steps at exact true times (forward *or* backward — a
  backward NTP step makes local time non-monotonic, as on real systems).
* :class:`ExcursionDrift` wraps any :class:`~repro.simtime.drift.DriftModel`
  and adds a windowed skew excursion (flat plateau or triangular ramp),
  quantized to the owning clock's segment grid.

Both are deterministic: they draw no randomness and are pure functions
of true time, so a seeded simulation with a fault schedule reproduces
bit-identically.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from repro.errors import ClockError
from repro.simtime.base import Clock, quantize
from repro.simtime.drift import DriftModel
from repro.simtime.hardware import HardwareClock


class SteppedClock(Clock):
    """A hardware clock plus scheduled offset steps (NTP discipline jumps).

    ``steps`` is a sequence of ``(true_time, amount)`` pairs; at each
    ``true_time`` the reading jumps by ``amount`` seconds (positive =
    forward).  Between steps the wrapped clock is read unchanged, so the
    wrapper preserves the inner clock's drift behaviour exactly.
    """

    def __init__(
        self, inner: HardwareClock, steps: Sequence[tuple[float, float]]
    ) -> None:
        if not steps:
            raise ValueError("SteppedClock needs at least one step")
        ordered = sorted((float(t), float(a)) for t, a in steps)
        if ordered[0][0] < 0.0:
            raise ValueError("step times must be >= 0")
        self.inner = inner
        self._times = [t for t, _ in ordered]
        self._amounts = [a for _, a in ordered]
        # _cum[k] = total step applied once the first k steps have fired.
        self._cum = [0.0]
        for a in self._amounts:
            self._cum.append(self._cum[-1] + a)

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    @property
    def granularity(self) -> float:
        return self.inner.granularity

    @property
    def read_overhead(self) -> float:
        return self.inner.read_overhead

    def _step_sum(self, true_time: float) -> float:
        """Total offset applied by steps at or before ``true_time``."""
        return self._cum[bisect.bisect_right(self._times, true_time)]

    def read_raw(self, true_time: float) -> float:
        return self.inner.read_raw(true_time) + self._step_sum(true_time)

    def read(self, true_time: float) -> float:
        return quantize(self.read_raw(true_time), self.granularity)

    def invert(self, reading: float) -> float:
        """Earliest true time at which the stepped clock shows ``reading``.

        The mapping is the inner (strictly increasing) clock plus a
        piecewise-constant offset, so each step region can be inverted
        through the inner clock.  A reading skipped by a forward jump
        resolves to the jump instant; a reading repeated because of a
        backward jump resolves to its first occurrence.
        """
        n = len(self._times)
        for k in range(n + 1):
            lo = 0.0 if k == 0 else self._times[k - 1]
            hi = self._times[k] if k < n else float("inf")
            try:
                t = self.inner.invert(reading - self._cum[k])
            except ClockError:
                continue
            if lo <= t < hi:
                return t
        # Not reachable within any region: the reading lies inside a
        # forward jump — the clock attains it exactly at that step time.
        for k in range(n):
            at = self._times[k]
            before = self.inner.read_raw(at) + self._cum[k]
            after = before + self._amounts[k]
            if before <= reading < after:
                return at
        raise ClockError(
            f"reading {reading} is not attained by this stepped clock"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        steps = list(zip(self._times, self._amounts))
        return f"SteppedClock(inner={self.inner!r}, steps={steps})"


class ExcursionDrift(DriftModel):
    """Adds windowed skew excursions on top of any :class:`DriftModel`.

    ``windows`` is a sequence of ``(start, end, delta, shape)`` tuples in
    *true seconds*; within ``[start, end)`` the wrapped model's skew is
    shifted by up to ``delta``.  ``shape`` is ``"flat"`` (constant plateau
    — a sudden load/thermal step) or ``"triangle"`` (ramp up to ``delta``
    at the window midpoint and back down — a thermal cycle).  Windows are
    evaluated on the segment grid of the owning clock, so ``segment_length``
    must match the clock's.
    """

    SHAPES = ("flat", "triangle")

    def __init__(
        self,
        inner: DriftModel,
        windows: Sequence[tuple[float, float, float, str]],
        segment_length: float,
    ) -> None:
        if segment_length <= 0.0:
            raise ValueError("segment_length must be > 0")
        for start, end, _delta, shape in windows:
            if start < 0.0 or end <= start:
                raise ValueError(
                    f"excursion window [{start}, {end}) must be non-empty "
                    "and start at >= 0"
                )
            if shape not in self.SHAPES:
                raise ValueError(
                    f"unknown excursion shape {shape!r}; known: {self.SHAPES}"
                )
        self.inner = inner
        self.windows = [
            (float(s), float(e), float(d), shape)
            for s, e, d, shape in windows
        ]
        self.segment_length = float(segment_length)

    def _excursion(self, index: int) -> float:
        """Total skew shift active during segment ``index``."""
        t = (index + 0.5) * self.segment_length  # segment midpoint
        total = 0.0
        for start, end, delta, shape in self.windows:
            if not start <= t < end:
                continue
            if shape == "flat":
                total += delta
            else:  # triangle
                mid = 0.5 * (start + end)
                half = mid - start
                total += delta * (1.0 - abs(t - mid) / half)
        return total

    def skew_for_segment(self, index: int) -> float:
        return self.inner.skew_for_segment(index) + self._excursion(index)

    def excursion_bound(self) -> float:
        # Worst pair of segments: one at the inner model's extreme with
        # every overlapping window pushing one way, the other at the
        # opposite extreme with no window active.  Windows may overlap,
        # so their deltas add.
        return self.inner.excursion_bound() + 2.0 * sum(
            abs(delta) for _s, _e, delta, _shape in self.windows
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExcursionDrift(inner={self.inner!r}, "
            f"windows={self.windows!r})"
        )
