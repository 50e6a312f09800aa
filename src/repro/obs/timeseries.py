"""Bounded, decimating time-series telemetry for clock-health tracking.

Skewless network clock synchronization (arXiv:1208.5703) makes the case
that clock quality is a *trajectory*, not a point estimate: a drift
excursion or a slow post-fault resync is invisible in end-of-run metric
snapshots.  This module is the continuous counterpart of
:mod:`repro.obs.metrics`: producers push ``(true_time, value)`` samples
and the bank keeps a bounded, deterministic sketch of every series.

Design points:

* :class:`TimeSeries` is a decimating buffer with **automatic stride
  doubling**: it retains every sample until ``max_points`` is reached,
  then compacts to every 2nd retained point and doubles the acceptance
  stride.  Retention is a pure function of the offered sample sequence
  (sample *i* is retained iff ``i % stride == 0`` for the stride active
  when it arrives), so the same samples always produce the same retained
  points regardless of batching — the determinism contract
  ``tests/obs/test_timeseries.py`` pins.
* :class:`TimeSeriesBank` keys series by ``(name, rank)`` like the
  metrics registry, and adds **scopes** (``bank.scoped("hca/...#0")``)
  so independent simulated mpiruns of one campaign land in disjoint,
  time-monotonic series, and **markers** (fault injections, resync
  rounds) that the anomaly detectors in :mod:`repro.obs.health`
  correlate with the sampled error trajectories.
* Banks are passive and mergeable: the parallel campaign executor runs
  each job under a fresh bank and folds the per-job banks into the
  parent in submission order (the same contract as
  ``MetricsRegistry.merge_from``), which is what makes ``--jobs N``
  reports byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: Separator between a scope prefix and the metric name in a full series
#: name.  Metric names and scopes may contain "/" (algorithm labels do),
#: so the scope join uses a token that appears in neither.
SCOPE_SEP = "::"


def split_scope(name: str) -> tuple[str, str]:
    """Split a full series name into ``(scope, metric)``.

    ``"hca/15#0::clock.error"`` → ``("hca/15#0", "clock.error")``;
    unscoped names return an empty scope.
    """
    scope, sep, metric = name.rpartition(SCOPE_SEP)
    return (scope, metric) if sep else ("", name)


class TimeSeries:
    """Bounded sample buffer with deterministic stride-doubling decimation.

    ``append`` offers one ``(time, value)`` sample; the buffer keeps at
    most ``max_points`` of them.  When full it drops every other retained
    point and doubles ``stride``, after which only every ``stride``-th
    *offered* sample is accepted — old history keeps its shape at half
    resolution while new samples keep arriving at bounded memory.
    """

    __slots__ = ("name", "rank", "max_points", "_stride", "_count", "_points")

    def __init__(
        self, name: str, rank: int | None = None, max_points: int = 512
    ) -> None:
        if max_points < 2:
            raise ValueError("max_points must be >= 2")
        self.name = name
        self.rank = rank
        self.max_points = max_points
        self._stride = 1
        self._count = 0
        self._points: list[tuple[float, float]] = []

    @property
    def stride(self) -> int:
        """Current acceptance stride (doubles on each compaction)."""
        return self._stride

    @property
    def count(self) -> int:
        """Total samples offered (retained or not)."""
        return self._count

    @property
    def points(self) -> list[tuple[float, float]]:
        """The retained ``(time, value)`` points, oldest first."""
        return self._points

    def append(self, time: float, value: float) -> None:
        """Offer one sample; retention is a pure function of the stream."""
        index = self._count
        self._count = index + 1
        if index % self._stride:
            return
        if len(self._points) >= self.max_points:
            # Compact: keep every other retained point (offered indices
            # 0, 2*stride, 4*stride, ...) and double the stride.
            del self._points[1::2]
            self._stride *= 2
            if index % self._stride:
                return
        self._points.append((time, value))

    def extend(self, pairs) -> None:
        """Offer many ``(time, value)`` samples in order."""
        for time, value in pairs:
            self.append(time, value)

    def times(self) -> list[float]:
        return [t for t, _ in self._points]

    def values(self) -> list[float]:
        return [v for _, v in self._points]

    def copy(self) -> "TimeSeries":
        """Structural copy (used when a bank adopts a merged series)."""
        dup = TimeSeries(self.name, self.rank, self.max_points)
        dup._stride = self._stride
        dup._count = self._count
        dup._points = list(self._points)
        return dup

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "count": self._count,
            "stride": self._stride,
            "points": [[t, v] for t, v in self._points],
        }

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSeries({self.name!r}, rank={self.rank}, "
            f"n={len(self._points)}/{self._count}, stride={self._stride})"
        )


def _sort_key(key: tuple[str, int | None]):
    name, rank = key
    return (name, rank is not None, rank if rank is not None else -1)


class TimeSeriesBank:
    """Registry of :class:`TimeSeries` keyed by ``(name, rank)``.

    Mirrors :class:`~repro.obs.metrics.MetricsRegistry`: accessors create
    on first use, ``rank=None`` is the job-level series, and sampling is
    passive — it never draws randomness or perturbs the simulation.

    A *scope* prefix (entered via :meth:`scoped`) namespaces everything
    sampled or marked while it is active, so per-job telemetry from a
    multi-run campaign stays separable after merging.
    """

    def __init__(self, max_points: int = 512, max_marks: int = 1024) -> None:
        self.max_points = max_points
        self.max_marks = max_marks
        self.scope = ""
        self._series: dict[tuple[str, int | None], TimeSeries] = {}
        self._markers: dict[tuple[str, int | None],
                            list[tuple[float, str]]] = {}

    # ------------------------------------------------------------------
    # Scoping
    # ------------------------------------------------------------------
    def scoped_name(self, name: str) -> str:
        """The full series name ``name`` resolves to under the scope."""
        return f"{self.scope}{SCOPE_SEP}{name}" if self.scope else name

    @contextmanager
    def scoped(self, scope: str) -> Iterator["TimeSeriesBank"]:
        """Prefix every sample/mark inside the block with ``scope``."""
        previous = self.scope
        self.scope = (
            f"{previous}{SCOPE_SEP}{scope}" if previous else scope
        )
        try:
            yield self
        finally:
            self.scope = previous

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def series(self, name: str, rank: int | None = None) -> TimeSeries:
        """The series for ``(name, rank)`` under the current scope."""
        key = (self.scoped_name(name), rank)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(
                key[0], rank, self.max_points
            )
        return series

    def sample(
        self, name: str, time: float, value: float, rank: int | None = None
    ) -> None:
        """Offer one ``(time, value)`` sample to a (scoped) series."""
        self.series(name, rank).append(time, float(value))

    def mark(
        self, name: str, time: float, label: str, rank: int | None = None
    ) -> None:
        """Record a point marker (fault injection, resync round, ...)."""
        key = (self.scoped_name(name), rank)
        marks = self._markers.get(key)
        if marks is None:
            marks = self._markers[key] = []
        if len(marks) < self.max_marks:
            marks.append((time, label))

    # ------------------------------------------------------------------
    # Lookup (full names — callers resolve scopes themselves)
    # ------------------------------------------------------------------
    def get(self, name: str, rank: int | None = None) -> TimeSeries | None:
        """Exact lookup by *full* (already-scoped) name; no creation."""
        return self._series.get((name, rank))

    def items(self) -> list[tuple[tuple[str, int | None], TimeSeries]]:
        """All series, deterministically sorted by ``(name, rank)``."""
        return sorted(self._series.items(), key=lambda kv: _sort_key(kv[0]))

    def names(self) -> list[str]:
        """Every distinct full series name in the bank."""
        return sorted({name for (name, _) in self._series})

    def ranks_of(self, name: str) -> list[int]:
        """The ranks that have a per-rank series under full name ``name``."""
        return sorted(
            rank
            for (n, rank) in self._series
            if n == name and rank is not None
        )

    def marks_named(self, name: str) -> list[tuple[int | None, float, str]]:
        """All markers under full name ``name`` as ``(rank, time, label)``."""
        out = [
            (rank, time, label)
            for (n, rank), marks in self._markers.items()
            if n == name
            for time, label in marks
        ]
        out.sort(key=lambda m: (m[1], m[0] is not None, m[0] or 0, m[2]))
        return out

    def markers(self) -> list[tuple[tuple[str, int | None],
                                    list[tuple[float, str]]]]:
        """All marker lists, deterministically sorted by ``(name, rank)``."""
        return sorted(self._markers.items(), key=lambda kv: _sort_key(kv[0]))

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    # Merging (parallel executor contract)
    # ------------------------------------------------------------------
    def merge_from(self, other: "TimeSeriesBank") -> None:
        """Fold another bank into this one, key-wise.

        A key absent here adopts the other bank's series structurally
        (points, stride, offered count); a key present on both sides has
        the other's *retained* points replayed through the decimator.
        The executor calls this in job-submission order for serial and
        parallel runs alike, which keeps merged banks identical across
        ``--jobs`` settings.
        """
        for key, series in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                self._series[key] = series.copy()
            else:
                mine.extend(series.points)
        for key, marks in other._markers.items():
            merged = self._markers.setdefault(key, [])
            room = self.max_marks - len(merged)
            if room > 0:
                merged.extend(marks[:room])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict dump (deterministically ordered, JSON-ready)."""
        return {
            "series": [series.to_dict() for _, series in self.items()],
            "markers": [
                {
                    "name": name,
                    "rank": rank,
                    "marks": [[t, label] for t, label in marks],
                }
                for (name, rank), marks in self.markers()
            ],
        }
