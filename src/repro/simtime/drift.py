"""Skew/drift generators for simulated hardware clocks.

The *skew* of a clock is the relative frequency error of its oscillator:
a skew of ``+50e-6`` (50 ppm) means the clock gains 50 µs per true second.
Real oscillators are not perfectly stable — temperature and voltage move the
frequency over tens of seconds, which is exactly the non-linearity the paper
observes in Fig. 2 (linear over ~10 s, visibly curved over 500 s).

A :class:`DriftModel` produces the skew for consecutive fixed-length
*segments* of true time.  :class:`~repro.simtime.hardware.HardwareClock`
integrates those per-segment skews into a piecewise-linear local-time curve.
All models are deterministic functions of a `numpy.random.Generator` seeded
at construction, so simulations are reproducible.
"""

from __future__ import annotations

import abc
import math
from typing import Hashable

import numpy as np


class DriftModel(abc.ABC):
    """Produces the oscillator skew for segment ``i`` of a hardware clock."""

    @abc.abstractmethod
    def skew_for_segment(self, index: int) -> float:
        """Return the (dimensionless) skew during segment ``index`` (>= 0).

        Must be deterministic: calling twice with the same index returns the
        same value.  Values must stay in ``(-1, 1)`` so local time remains
        strictly increasing; realistic values are within ±1e-3.
        """

    def excursion_bound(self) -> float:
        """Upper bound on ``|skew(j) - skew(i)|`` over any two segments.

        This is the residual *rate* error a clock model fitted at one
        point in time can accumulate against later: after a perfect
        slope correction, the estimate degrades at most this fast
        (seconds of error per second of age).  Models without a known
        bound return ``inf`` — consumers (staleness bounds, resync
        policies) then fall back to always-stale behaviour rather than
        claiming an accuracy they cannot guarantee.
        """
        return math.inf

    def error_growth_many(self, ages: np.ndarray) -> np.ndarray:
        """Bound on accumulated clock error ``ages`` seconds after a sync.

        The integral of the skew deviation since the sync instant — the
        paper's per-second accuracy degradation, generalized per drift
        family.  The default integrates the worst case
        (``excursion_bound() * age``); stochastic models override it
        with a tighter high-confidence bound.  Negative ages count as 0.
        The batch-serving layer calls this per response.
        """
        ages = np.clip(np.asarray(ages, dtype=np.float64), 0.0, None)
        return self.excursion_bound() * ages

    def growth_key(self) -> Hashable | None:
        """Hashable value of everything :meth:`error_growth_many` depends on.

        Two models with equal keys have the same ``error_growth_many`` at
        every age, so a batch layer may evaluate it once for both.
        ``None`` (the default) means unknown: never shared.
        """
        return None


class ConstantDrift(DriftModel):
    """A perfectly stable oscillator with a fixed skew.

    Under constant drift the clock-offset curve of Fig. 2 is an exact line,
    which makes this model the baseline for unit tests and for validating
    the linear-regression machinery (R² == 1).
    """

    def __init__(self, skew: float = 0.0) -> None:
        if not -1.0 < skew < 1.0:
            raise ValueError(f"skew must be in (-1, 1), got {skew}")
        self.skew = float(skew)

    def skew_for_segment(self, index: int) -> float:
        if index < 0:
            raise ValueError("segment index must be >= 0")
        return self.skew

    def excursion_bound(self) -> float:
        return 0.0

    def growth_key(self) -> Hashable:
        return ("constant",)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstantDrift(skew={self.skew:g})"


class RandomWalkDrift(DriftModel):
    """Skew performs a bounded Gaussian random walk across segments.

    This reproduces the Fig. 2 phenomenology: over a handful of segments the
    skew barely moves (offset curve looks linear, R² > 0.9 over ~10 s), but
    over hundreds of segments the accumulated walk bends the curve.

    The walk is reflected at ``initial_skew ± max_excursion`` so the skew
    cannot run away over very long simulations.
    """

    def __init__(
        self,
        initial_skew: float,
        sigma: float,
        rng: np.random.Generator,
        max_excursion: float = 20e-6,
        max_segments: int = 1 << 20,
    ) -> None:
        if sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if max_excursion <= 0.0:
            raise ValueError("max_excursion must be > 0")
        self.initial_skew = float(initial_skew)
        self.sigma = float(sigma)
        self.max_excursion = float(max_excursion)
        self._rng = rng
        self._max_segments = max_segments
        # Lazily extended record of the walk; index i holds segment i's skew.
        self._skews: list[float] = [self.initial_skew]

    def _reflect(self, value: float) -> float:
        lo = self.initial_skew - self.max_excursion
        hi = self.initial_skew + self.max_excursion
        if lo <= value <= hi:
            return value
        span = hi - lo
        # Fold the value back into [lo, hi] (triangle-wave reflection).
        y = (value - lo) % (2.0 * span)
        if y > span:
            y = 2.0 * span - y
        return lo + y

    def skew_for_segment(self, index: int) -> float:
        if index < 0:
            raise ValueError("segment index must be >= 0")
        if index >= self._max_segments:
            raise ValueError(
                f"segment index {index} exceeds max_segments={self._max_segments}"
            )
        while len(self._skews) <= index:
            step = self._rng.normal(0.0, self.sigma)
            self._skews.append(self._reflect(self._skews[-1] + step))
        return self._skews[index]

    def excursion_bound(self) -> float:
        # The walk is reflected into initial_skew ± max_excursion, so two
        # segments can differ by at most the full corridor width.
        return 2.0 * self.max_excursion

    def error_growth_many(self, ages: np.ndarray) -> np.ndarray:
        """3-sigma bound on the integrated walk, capped by the corridor.

        The skew deviation after ``a`` segments is a random walk with
        per-segment std ``sigma``; its time integral has std
        ``sigma * a^1.5 / sqrt(3)`` (in seconds, at the package-default
        1 s segments).  Three sigmas of that is a high-confidence bound,
        and the reflecting corridor caps the worst case at
        ``2 * max_excursion * a``.
        """
        ages = np.clip(np.asarray(ages, dtype=np.float64), 0.0, None)
        walk = 3.0 * self.sigma * ages ** 1.5 / math.sqrt(3.0)
        return np.minimum(walk, self.excursion_bound() * ages)

    def growth_key(self) -> Hashable:
        return ("walk", self.sigma, self.max_excursion)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomWalkDrift(initial_skew={self.initial_skew:g}, "
            f"sigma={self.sigma:g})"
        )


class SinusoidalDrift(DriftModel):
    """Deterministic thermal-style oscillation of the skew.

    Models a machine-room temperature cycle: skew oscillates around a mean
    with a long period (minutes).  Combined with a short observation window
    this is indistinguishable from linear drift; over the full period the
    offset curve is clearly non-linear.  ``segment_length`` must match the
    owning clock's segment length so phase advances at the right rate.
    """

    def __init__(
        self,
        mean_skew: float,
        amplitude: float,
        period: float,
        segment_length: float,
        phase: float = 0.0,
    ) -> None:
        if period <= 0.0:
            raise ValueError("period must be > 0")
        if segment_length <= 0.0:
            raise ValueError("segment_length must be > 0")
        if amplitude < 0.0:
            raise ValueError("amplitude must be >= 0")
        self.mean_skew = float(mean_skew)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.segment_length = float(segment_length)
        self.phase = float(phase)

    def skew_for_segment(self, index: int) -> float:
        if index < 0:
            raise ValueError("segment index must be >= 0")
        t = (index + 0.5) * self.segment_length
        return self.mean_skew + self.amplitude * math.sin(
            2.0 * math.pi * t / self.period + self.phase
        )

    def excursion_bound(self) -> float:
        # Peak-to-peak swing of the sinusoid.
        return 2.0 * self.amplitude

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SinusoidalDrift(mean={self.mean_skew:g}, amp={self.amplitude:g}, "
            f"period={self.period:g})"
        )
