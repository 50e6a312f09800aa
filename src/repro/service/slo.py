"""Resync scheduling policies for the clock service.

A policy answers one question: given the epoch just installed, *when*
should the cluster resync next?  The ``service_slo`` experiment sweeps
policies against an error SLO to find the cheapest schedule whose p99
clock error stays under it:

* :class:`PeriodicResyncPolicy` — the paper's fixed-age schedule
  (service-side mirror of :class:`~repro.sync.resync.PeriodicResyncClock`).
* :class:`ErrorBoundResyncPolicy` — resync when the *predicted* worst
  per-rank error bound reaches ``margin * slo``; adapts the schedule to
  the drift actually present instead of a worst-case period.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.service.epoch import ModelEpoch


class ResyncPolicy(abc.ABC):
    """Decides the absolute time of the next sync round."""

    @abc.abstractmethod
    def next_resync(self, epoch: ModelEpoch) -> float:
        """True time at which the epoch should be replaced."""

    @abc.abstractmethod
    def label(self) -> str:
        """Human-readable policy tag for sweep tables."""


@dataclass(frozen=True)
class PeriodicResyncPolicy(ResyncPolicy):
    """Fixed model-age schedule: resync every ``period`` seconds."""

    period: float

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ConfigurationError("period must be > 0")

    def next_resync(self, epoch: ModelEpoch) -> float:
        return epoch.synced_at + self.period

    def label(self) -> str:
        return f"periodic[{self.period:g}s]"


@dataclass(frozen=True)
class ErrorBoundResyncPolicy(ResyncPolicy):
    """Resync when the predicted error bound reaches ``margin * slo``.

    The crossing age is found by bisection on the epoch's (monotone
    non-decreasing) worst per-rank bound; drift families whose bound
    never reaches the trigger before ``max_age`` — a constant-drift
    cluster, say — fall back to a ``max_age`` period.
    """

    slo: float
    margin: float = 0.8
    #: Schedule ceiling (and bisection bracket), seconds.
    max_age: float = 300.0

    def __post_init__(self) -> None:
        if self.slo <= 0.0:
            raise ConfigurationError("slo must be > 0")
        if not 0.0 < self.margin <= 1.0:
            raise ConfigurationError("margin must be in (0, 1]")
        if self.max_age <= 0.0:
            raise ConfigurationError("max_age must be > 0")

    def next_resync(self, epoch: ModelEpoch) -> float:
        target = self.margin * self.slo
        if epoch.max_bound(self.max_age) < target:
            return epoch.synced_at + self.max_age
        lo, hi = 0.0, self.max_age
        for _ in range(64):  # deterministic fixed-iteration bisection
            mid = 0.5 * (lo + hi)
            if epoch.max_bound(mid) >= target:
                hi = mid
            else:
                lo = mid
        return epoch.synced_at + hi

    def label(self) -> str:
        return f"errorbound[{self.slo:g}s@{self.margin:g}]"
