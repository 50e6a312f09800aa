"""Per-round instrumentation of the clock-synchronization algorithms.

Every LEARN_CLOCK_MODEL invocation (one client fitting a model against one
reference) is one *round*; the client records a :class:`SyncRoundRecord`
with the raw fit points (timestamp, offset, observed RTT), the fitted
model, and the fit residuals.  A hierarchical scheme tags each record with
the level it ran at (``internode``/``intersocket``/``intranode``), so the
paper's "accuracy decays down the tree" claim can be checked per level.

Collectors are passive and SPMD-shared: the same algorithm instance runs
on every simulated rank, so records from all ranks accumulate in one
collector, tagged by the recording (client) rank.  Deterministic engines
give a deterministic record order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FitpointSample:
    """One offset measurement used as a regression fit point."""

    timestamp: float
    offset: float
    #: Round-trip time observed while measuring (None if unavailable).
    rtt: float | None = None


@dataclass(frozen=True)
class SyncRoundRecord:
    """One client's completed LEARN_CLOCK_MODEL round."""

    algorithm: str
    #: Hierarchy level label ("" for flat runs).
    level: str
    #: Tree round / sweep index within the algorithm.
    round_index: int
    ref_rank: int
    client_rank: int
    fitpoints: tuple[FitpointSample, ...]
    slope: float
    intercept: float
    #: offset - model prediction, per fit point.
    residuals: tuple[float, ...]

    @property
    def nfitpoints(self) -> int:
        return len(self.fitpoints)

    @property
    def rtts(self) -> list[float]:
        return [fp.rtt for fp in self.fitpoints if fp.rtt is not None]

    @property
    def min_rtt(self) -> float:
        rtts = self.rtts
        return min(rtts) if rtts else math.nan

    @property
    def mean_rtt(self) -> float:
        rtts = self.rtts
        return sum(rtts) / len(rtts) if rtts else math.nan

    @property
    def max_abs_residual(self) -> float:
        return max((abs(r) for r in self.residuals), default=0.0)


@dataclass
class SyncStatsCollector:
    """Accumulates round records across ranks/levels of one or more runs."""

    rounds: list[SyncRoundRecord] = field(default_factory=list)

    def record(self, record: SyncRoundRecord) -> None:
        self.rounds.append(record)

    def clear(self) -> None:
        self.rounds.clear()

    def __len__(self) -> int:
        return len(self.rounds)

    # ------------------------------------------------------------------
    def for_level(self, level: str) -> list[SyncRoundRecord]:
        return [r for r in self.rounds if r.level == level]

    def levels(self) -> list[str]:
        seen: list[str] = []
        for r in self.rounds:
            if r.level not in seen:
                seen.append(r.level)
        return seen

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-level aggregate: rounds, RTT and residual statistics."""
        out: dict[str, dict[str, float]] = {}
        for level in self.levels():
            records = self.for_level(level)
            rtts = [rtt for r in records for rtt in r.rtts]
            residuals = [abs(res) for r in records for res in r.residuals]
            slopes = [r.slope for r in records]
            out[level or "flat"] = {
                "rounds": float(len(records)),
                "fitpoints": float(sum(r.nfitpoints for r in records)),
                "mean_rtt": (sum(rtts) / len(rtts)) if rtts else math.nan,
                "min_rtt": min(rtts) if rtts else math.nan,
                "max_abs_residual": max(residuals, default=0.0),
                "mean_abs_residual": (
                    sum(residuals) / len(residuals) if residuals else 0.0
                ),
                "mean_abs_slope": (
                    sum(abs(s) for s in slopes) / len(slopes)
                    if slopes else 0.0
                ),
            }
        return out
