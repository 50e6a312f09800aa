"""Anomaly detectors over the clock-health telemetry bank.

"MPI Benchmarking Revisited" (arXiv:1505.07734) argues measurement
pipelines need built-in validity checks; this module is ours.  Four
detectors scan the ``clock.error*`` series of a
:class:`~repro.obs.timeseries.TimeSeriesBank` (per-rank estimated-vs-true
global-clock error, sampled by the campaign/recovery harnesses), and a
fifth scans the service layer's stale-read-rate series:

* **drift excursion** — the error slope between consecutive resync
  markers exceeds a threshold: the linear clock model is degrading
  faster than the paper's Section III-C2 validity window assumes.
* **desync breach** — ``|error|`` stays above a tolerance for longer
  than a grace window: the global clock is effectively unsynchronized.
* **resync latency** — the time from a fault-injection marker until the
  error re-enters tolerance; slow or absent recovery is flagged, and
  healthy recoveries are reported as ``info`` findings so the run
  report always shows the measured latency.
* **stuck clock** — a series flat-lines at a constant non-zero value:
  either the estimator froze or the sampling pipeline died.  (Constant
  *zero* is exact agreement — shared time-source domains produce it
  legitimately — and is not flagged.)
* **stale read** — the clock service's ``service.stale_rate`` series
  (fraction of responses whose error bound exceeded the SLO) stays out
  of tolerance for a sustained window: the resync policy is losing
  against the drift.
* **depth anomaly** — the causal tracing layer's measured sync-round
  critical-path depth (``sync.critical.depth_ratio``, measured depth
  over the algorithm's expected O(log p) / O(p) bound) exceeds 1: the
  round's critical path is deeper than the algorithm's structure
  predicts — an early signal for delay attacks, congestion, or a
  broken tree (the adversary presets of :mod:`repro.faults.scenarios`).
* **byzantine suspect** — one rank's mean |error| is a large multiple
  of its scope's population median: the classic signature of a rank
  whose clock (or whose timestamp reports, see
  :class:`~repro.faults.model.ByzantineClockAdversary`) disagrees with
  an otherwise-converged cohort.  Needs a minimum cohort size —
  outliers are only meaningful against a population.
* **congestion desync** — the network layer's ``net.queue_delay``
  series (queueing sojourn sampled by congestion adversaries) shows a
  sustained standing queue; escalates to critical when the same scope
  also desynchronized, tying the clock damage to the congestion.

Everything is pure ``math`` over retained points (no numpy), so verdicts
are bit-deterministic and goldenable; ``to_dict`` rounds floats to 12
decimals to absorb last-ulp libm differences across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.timeseries import SCOPE_SEP, TimeSeriesBank, split_scope

#: Severity order, worst last.
SEVERITIES = ("info", "warning", "critical")

#: Metric (unscoped) name prefix of the error series detectors scan.
ERROR_METRIC = "clock.error"
#: Metric (unscoped) name of the service stale-read-rate series.
STALE_METRIC = "service.stale_rate"
#: Metric (unscoped) name of the critical-path depth-ratio series
#: (measured level depth / expected bound, deposited by ``--trace``).
DEPTH_METRIC = "sync.critical.depth_ratio"
#: Metric (unscoped) name of the queueing-sojourn series (sampled by
#: congestion adversaries, see repro.faults.injector).
QUEUE_METRIC = "net.queue_delay"
#: Marker metric names the detectors correlate against.
RESYNC_MARKER = "resync"
FAULT_MARKER = "fault"


#: Detector limits (seconds unless noted).
#: |d(error)/dt| between resyncs above this is a drift excursion.
DRIFT_SLOPE = 5e-6
#: Minimum segment span (s) before a slope estimate is trusted.
DRIFT_WINDOW = 3.0
#: Minimum points per segment for a slope estimate.
DRIFT_MIN_POINTS = 4
#: |error| above this is out of tolerance.
DESYNC_TOLERANCE = 100e-6
#: Seconds out of tolerance before a breach finding fires.
DESYNC_GRACE = 2.0
#: Allowed seconds from a fault trigger to error re-entering tolerance
#: before recovery counts as slow.
RESYNC_LATENCY = 10.0
#: Consecutive identical samples before a series counts as stuck.
STUCK_MIN_POINTS = 8
#: Minimum span (s) of the identical run.
STUCK_SPAN = 2.0
#: Stale-read rate (fraction of responses whose error bound exceeds the
#: SLO) above this is out of tolerance.
STALE_RATE_TOLERANCE = 0.01
#: Seconds the rate must stay out of tolerance before a finding.
STALE_WINDOW = 2.0
#: Rate at which a stale-read finding escalates to critical.
STALE_RATE_CRITICAL = 0.25
#: Measured/expected critical-path depth ratio above this is a depth
#: anomaly (1.0 = exactly the structural bound).
DEPTH_RATIO = 1.0
#: Ratio at which a depth anomaly escalates to critical.
DEPTH_RATIO_CRITICAL = 2.0
#: A rank whose mean |error| exceeds this multiple of its scope's
#: population median (and DESYNC_TOLERANCE) is a byzantine suspect.
BYZANTINE_FACTOR = 8.0
#: Multiple at which a byzantine suspect escalates to critical.
BYZANTINE_FACTOR_CRITICAL = 32.0
#: Minimum error series in a scope before outlier detection runs.
BYZANTINE_MIN_SERIES = 3
#: Queueing sojourn (s) above this counts as a standing queue.
QUEUE_DELAY_TOLERANCE = 50e-6
#: Seconds the sojourn must stay above tolerance before a congestion
#: finding fires (sync rounds are sub-second, so the window is much
#: shorter than the wall-clock-scale limits).
QUEUE_WINDOW = 10e-3


@dataclass(frozen=True)
class HealthFinding:
    """One typed detector hit against one telemetry series."""

    detector: str
    severity: str
    #: Full (scoped) series name the finding anchors to.
    series: str
    rank: int | None
    #: Time span of the anomalous behaviour (true simulation seconds).
    start: float
    end: float
    #: Measured magnitude (slope, |error|, latency, ... per detector).
    value: float
    threshold: float
    message: str

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "series": self.series,
            "rank": self.rank,
            "start": _round(self.start),
            "end": _round(self.end),
            "value": _round(self.value),
            "threshold": _round(self.threshold),
            "message": self.message,
        }


@dataclass
class HealthVerdict:
    """Aggregated outcome of one full detector sweep over a bank."""

    findings: list[HealthFinding] = field(default_factory=list)
    #: detector name → {"findings": n, "worst": severity or "ok"}.
    detectors: dict[str, dict] = field(default_factory=dict)
    series_scanned: int = 0

    @property
    def status(self) -> str:
        """Worst non-info severity across findings, or ``"ok"``."""
        return _worst_status(self.findings)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "series_scanned": self.series_scanned,
            "detectors": self.detectors,
            "findings": [f.to_dict() for f in self.findings],
        }


def _worst_status(findings) -> str:
    """The worst non-info severity among ``findings``, or ``"ok"``."""
    worst = max((SEVERITIES.index(f.severity) for f in findings), default=0)
    return SEVERITIES[worst] if worst > 0 else "ok"


def _round(x: float) -> float:
    return round(float(x), 12)


def _is_error_series(name: str) -> bool:
    metric = split_scope(name)[1]
    return metric == ERROR_METRIC or metric.startswith(ERROR_METRIC + ".")


def _error_series(bank: TimeSeriesBank):
    """All ``clock.error*`` series, in the bank's deterministic order."""
    return [
        series
        for (name, _), series in bank.items()
        if _is_error_series(name) and len(series) >= 2
    ]


def _marker_times(
    bank: TimeSeriesBank, series_name: str, marker: str, rank: int | None
) -> list[float]:
    """Marker times in the series' scope, for its rank or rank-agnostic."""
    scope = split_scope(series_name)[0]
    full = f"{scope}{SCOPE_SEP}{marker}" if scope else marker
    return sorted(
        time
        for mark_rank, time, _ in bank.marks_named(full)
        if mark_rank is None or rank is None or mark_rank == rank
    )


def _slope(points: list[tuple[float, float]]) -> float:
    """Closed-form least-squares slope (deterministic, no numpy)."""
    n = len(points)
    mean_t = sum(t for t, _ in points) / n
    mean_v = sum(v for _, v in points) / n
    num = sum((t - mean_t) * (v - mean_v) for t, v in points)
    den = sum((t - mean_t) ** 2 for t, _ in points)
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
def detect_drift_excursions(bank: TimeSeriesBank) -> list[HealthFinding]:
    """Error slope above threshold between consecutive resync markers."""
    findings = []
    for series in _error_series(bank):
        boundaries = _marker_times(
            bank, series.name, RESYNC_MARKER, series.rank
        )
        points = series.points
        edges = (
            [points[0][0]]
            + [b for b in boundaries if points[0][0] < b < points[-1][0]]
            + [points[-1][0]]
        )
        for lo, hi in zip(edges, edges[1:]):
            segment = [p for p in points if lo <= p[0] <= hi]
            if (
                len(segment) < DRIFT_MIN_POINTS
                or segment[-1][0] - segment[0][0] < DRIFT_WINDOW
            ):
                continue
            slope = _slope(segment)
            if abs(slope) <= DRIFT_SLOPE:
                continue
            severity = (
                "critical" if abs(slope) > 10 * DRIFT_SLOPE
                else "warning"
            )
            findings.append(HealthFinding(
                detector="drift_excursion",
                severity=severity,
                series=series.name,
                rank=series.rank,
                start=segment[0][0],
                end=segment[-1][0],
                value=slope,
                threshold=DRIFT_SLOPE,
                message=(
                    f"error slope {slope:.3g} s/s exceeds "
                    f"{DRIFT_SLOPE:.3g} between resyncs"
                ),
            ))
    return findings


def detect_desync_breaches(bank: TimeSeriesBank) -> list[HealthFinding]:
    """|error| above tolerance for longer than the grace window."""
    findings = []
    for series in _error_series(bank):
        run: list[tuple[float, float]] = []
        for point in series.points + [(float("inf"), 0.0)]:
            if abs(point[1]) > DESYNC_TOLERANCE:
                run.append(point)
                continue
            if run:
                span = run[-1][0] - run[0][0]
                if span >= DESYNC_GRACE:
                    peak = max(abs(v) for _, v in run)
                    findings.append(HealthFinding(
                        detector="desync_breach",
                        severity="critical",
                        series=series.name,
                        rank=series.rank,
                        start=run[0][0],
                        end=run[-1][0],
                        value=peak,
                        threshold=DESYNC_TOLERANCE,
                        message=(
                            f"|error| peaked at {peak:.3g}s, above "
                            f"{DESYNC_TOLERANCE:.3g}s tolerance for "
                            f"{span:.3g}s (grace {DESYNC_GRACE:g}s)"
                        ),
                    ))
                run = []
    return findings


def detect_resync_latency(bank: TimeSeriesBank) -> list[HealthFinding]:
    """Per fault trigger: time until the error re-enters tolerance.

    Healthy recoveries produce ``info`` findings (the measured latency
    belongs in the run report either way); slow recoveries are warnings
    and runs that never re-enter tolerance are critical.
    """
    findings = []
    for series in _error_series(bank):
        triggers = _marker_times(
            bank, series.name, FAULT_MARKER, series.rank
        )
        points = series.points
        for trigger in triggers:
            post = [p for p in points if p[0] >= trigger]
            breach = next(
                (i for i, (_, v) in enumerate(post)
                 if abs(v) > DESYNC_TOLERANCE),
                None,
            )
            if breach is None:
                continue  # this fault never pushed the error out
            recovered = next(
                (t for t, v in post[breach:]
                 if abs(v) <= DESYNC_TOLERANCE),
                None,
            )
            if recovered is None:
                latency = post[-1][0] - trigger
                severity, note = "critical", "never re-entered tolerance"
            else:
                latency = recovered - trigger
                slow = latency > RESYNC_LATENCY
                severity = "warning" if slow else "info"
                note = (
                    f"recovered {latency:.3g}s after the trigger"
                    + (" (slow)" if slow else "")
                )
            findings.append(HealthFinding(
                detector="resync_latency",
                severity=severity,
                series=series.name,
                rank=series.rank,
                start=trigger,
                end=trigger + latency,
                value=latency,
                threshold=RESYNC_LATENCY,
                message=f"fault at t={trigger:.3g}s: {note}",
            ))
    return findings


def detect_stuck_clocks(bank: TimeSeriesBank) -> list[HealthFinding]:
    """A series flat-lining at a constant non-zero value."""
    findings = []
    for series in _error_series(bank):
        points = series.points
        start = 0
        for i in range(1, len(points) + 1):
            if (
                i < len(points)
                and points[i][1] == points[start][1]
                and points[i][1] != 0.0
            ):
                continue
            run = points[start:i]
            if (
                len(run) >= STUCK_MIN_POINTS
                and run[-1][0] - run[0][0] >= STUCK_SPAN
                and run[0][1] != 0.0
            ):
                findings.append(HealthFinding(
                    detector="stuck_clock",
                    severity="warning",
                    series=series.name,
                    rank=series.rank,
                    start=run[0][0],
                    end=run[-1][0],
                    value=run[0][1],
                    threshold=float(STUCK_MIN_POINTS),
                    message=(
                        f"{len(run)} consecutive samples frozen at "
                        f"{run[0][1]:.3g} over "
                        f"{run[-1][0] - run[0][0]:.3g}s"
                    ),
                ))
            start = i
    return findings


def _stale_series(bank: TimeSeriesBank):
    """All ``service.stale_rate`` series, in deterministic bank order."""
    return [
        series
        for (name, _), series in bank.items()
        if split_scope(name)[1] == STALE_METRIC and len(series) >= 2
    ]


def detect_stale_reads(bank: TimeSeriesBank) -> list[HealthFinding]:
    """Service stale-read rate out of tolerance for a sustained window.

    The service driver samples the fraction of responses per reporting
    interval whose error bound exceeded the SLO.  A brief spike right
    before a resync lands is expected (that is the policy working at
    its margin); a *sustained* run above tolerance means the resync
    policy is losing against the drift — warning, escalating to
    critical when the rate says most reads are stale.
    """
    findings = []
    for series in _stale_series(bank):
        run: list[tuple[float, float]] = []
        for point in series.points + [(float("inf"), 0.0)]:
            if point[1] > STALE_RATE_TOLERANCE:
                run.append(point)
                continue
            if run:
                span = run[-1][0] - run[0][0]
                if span >= STALE_WINDOW:
                    peak = max(v for _, v in run)
                    severity = (
                        "critical" if peak >= STALE_RATE_CRITICAL
                        else "warning"
                    )
                    findings.append(HealthFinding(
                        detector="stale_read",
                        severity=severity,
                        series=series.name,
                        rank=series.rank,
                        start=run[0][0],
                        end=run[-1][0],
                        value=peak,
                        threshold=STALE_RATE_TOLERANCE,
                        message=(
                            f"stale-read rate peaked at {peak:.3g}, above "
                            f"{STALE_RATE_TOLERANCE:.3g} for {span:.3g}s "
                            f"(window {STALE_WINDOW:g}s)"
                        ),
                    ))
                run = []
    return findings


def _depth_series(bank: TimeSeriesBank):
    """All ``sync.critical.depth_ratio`` series, in bank order.

    One point per traced run is normal (a quick campaign traces one
    sync), so unlike the trend detectors a single sample is enough.
    """
    return [
        series
        for (name, _), series in bank.items()
        if split_scope(name)[1] == DEPTH_METRIC and len(series) >= 1
    ]


def detect_depth_anomalies(bank: TimeSeriesBank) -> list[HealthFinding]:
    """Critical-path depth above the algorithm's structural bound.

    The causal tracer deposits one ``sync.critical.depth_ratio`` sample
    per traced run: measured learn-round depth on the critical path
    divided by the expected bound (ceil(log2 p) + slack for tree
    algorithms, p - 1 for flat ones).  A healthy round sits at or below
    1; a ratio above it means the path zig-zagged through more rounds
    than the structure predicts — congestion, a delay attack, or a
    mis-built tree.
    """
    findings = []
    for series in _depth_series(bank):
        for time, ratio in series.points:
            if ratio <= DEPTH_RATIO:
                continue
            severity = (
                "critical" if ratio >= DEPTH_RATIO_CRITICAL
                else "warning"
            )
            findings.append(HealthFinding(
                detector="depth_anomaly",
                severity=severity,
                series=series.name,
                rank=series.rank,
                start=time,
                end=time,
                value=ratio,
                threshold=DEPTH_RATIO,
                message=(
                    f"critical-path depth ratio {ratio:.3g} exceeds the "
                    f"structural bound (x{DEPTH_RATIO:g})"
                ),
            ))
    return findings


def _median(values: list[float]) -> float:
    """Deterministic median (mean of middles for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_byzantine_suspects(bank: TimeSeriesBank) -> list[HealthFinding]:
    """One rank's mean |error| towers over its scope's cohort median.

    An honest-but-drifting rank degrades gradually and drags the whole
    cohort's statistics with it; a byzantine rank (lying timestamps, a
    stepped clock) sits alone far from an otherwise-converged median.
    The ratio is floored at ``DESYNC_TOLERANCE`` in absolute terms so a
    near-perfect cohort (median ~ 0) does not flag nanosecond noise.
    """
    findings = []
    by_scope: dict[str, list] = {}
    for series in _error_series(bank):
        by_scope.setdefault(split_scope(series.name)[0], []).append(series)
    for scope in sorted(by_scope):
        cohort = by_scope[scope]
        if len(cohort) < BYZANTINE_MIN_SERIES:
            continue
        means = [
            sum(abs(v) for _, v in s.points) / len(s.points)
            for s in cohort
        ]
        median = _median(means)
        baseline = max(median, DESYNC_TOLERANCE / BYZANTINE_FACTOR)
        for series, mean_abs in zip(cohort, means):
            ratio = mean_abs / baseline if baseline > 0.0 else 0.0
            if (
                ratio <= BYZANTINE_FACTOR
                or mean_abs <= DESYNC_TOLERANCE
            ):
                continue
            severity = (
                "critical" if ratio > BYZANTINE_FACTOR_CRITICAL
                else "warning"
            )
            findings.append(HealthFinding(
                detector="byzantine_suspect",
                severity=severity,
                series=series.name,
                rank=series.rank,
                start=series.points[0][0],
                end=series.points[-1][0],
                value=ratio,
                threshold=BYZANTINE_FACTOR,
                message=(
                    f"mean |error| {mean_abs:.3g}s is {ratio:.3g}x the "
                    f"cohort median {median:.3g}s "
                    f"({len(cohort)} series in scope)"
                ),
            ))
    return findings


def _queue_series(bank: TimeSeriesBank):
    """All ``net.queue_delay`` series, in deterministic bank order."""
    return [
        series
        for (name, _), series in bank.items()
        if split_scope(name)[1] == QUEUE_METRIC and len(series) >= 2
    ]


def detect_congestion_desync(bank: TimeSeriesBank) -> list[HealthFinding]:
    """Sustained standing queues, escalated when the scope desynced.

    A CoDel-healthy bottleneck sheds its backlog within an interval;
    sojourns above tolerance for a sustained window mean a standing
    queue.  On its own that is a warning (the network is sick, the
    clocks may still cope); when any ``clock.error`` series in the same
    scope is simultaneously out of tolerance, the finding is critical —
    the congestion is plausibly *causing* the desync.
    """
    desynced_scopes = {
        split_scope(series.name)[0]
        for series in _error_series(bank)
        if any(abs(v) > DESYNC_TOLERANCE for _, v in series.points)
    }
    findings = []
    for series in _queue_series(bank):
        scope = split_scope(series.name)[0]
        run: list[tuple[float, float]] = []
        for point in series.points + [(float("inf"), 0.0)]:
            if point[1] > QUEUE_DELAY_TOLERANCE:
                run.append(point)
                continue
            if run:
                span = run[-1][0] - run[0][0]
                if span >= QUEUE_WINDOW:
                    peak = max(v for _, v in run)
                    desynced = scope in desynced_scopes
                    findings.append(HealthFinding(
                        detector="congestion_desync",
                        severity="critical" if desynced else "warning",
                        series=series.name,
                        rank=series.rank,
                        start=run[0][0],
                        end=run[-1][0],
                        value=peak,
                        threshold=QUEUE_DELAY_TOLERANCE,
                        message=(
                            f"queueing sojourn peaked at {peak:.3g}s, "
                            f"above {QUEUE_DELAY_TOLERANCE:.3g}s for "
                            f"{span:.3g}s"
                            + (
                                " while the scope was desynchronized"
                                if desynced
                                else ""
                            )
                        ),
                    ))
                run = []
    return findings


#: The full detector sweep, in report order.
DETECTORS = (
    ("drift_excursion", detect_drift_excursions),
    ("desync_breach", detect_desync_breaches),
    ("resync_latency", detect_resync_latency),
    ("stuck_clock", detect_stuck_clocks),
    ("stale_read", detect_stale_reads),
    ("depth_anomaly", detect_depth_anomalies),
    ("byzantine_suspect", detect_byzantine_suspects),
    ("congestion_desync", detect_congestion_desync),
)


def evaluate_health(bank: TimeSeriesBank) -> HealthVerdict:
    """Run every detector over ``bank``; returns the per-run verdict.

    The verdict always carries one entry per detector (even when it
    found nothing), so ``report.json`` records that each check ran.
    """
    verdict = HealthVerdict(series_scanned=len(_error_series(bank)))
    for name, detector in DETECTORS:
        found = detector(bank)
        verdict.detectors[name] = {
            "findings": len(found),
            "worst": _worst_status(found),
        }
        verdict.findings.extend(found)
    verdict.findings.sort(
        key=lambda f: (
            -SEVERITIES.index(f.severity), f.start, f.detector,
            f.series, f.rank is not None, f.rank or 0,
        )
    )
    return verdict
