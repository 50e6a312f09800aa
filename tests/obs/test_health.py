"""Anomaly detectors: unit behaviour + golden files on fault scenarios.

Each detector has one golden-file test pinned against a synthetic fault
scenario from :mod:`repro.faults.scenarios` (or a hand-built bank for
the stuck-clock case).  The simulator is deterministic per seed and
finding floats are rounded to 12 decimals, so the goldens are stable.

Regenerate after an intentional detector/threshold change::

    PYTHONPATH=src python tests/obs/test_health.py --regen
"""

from __future__ import annotations

import json
import os

from repro.context import run_context
from repro.faults.evaluate import run_recovery
from repro.faults.scenarios import make_scenario
from repro.obs.health import (
    DEPTH_METRIC,
    QUEUE_METRIC,
    HealthThresholds,
    detect_byzantine_suspects,
    detect_congestion_desync,
    detect_depth_anomalies,
    detect_desync_breaches,
    detect_drift_excursions,
    detect_resync_latency,
    detect_stale_reads,
    detect_stuck_clocks,
    evaluate_health,
)
from repro.obs.timeseries import TimeSeriesBank

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Small-but-real recovery runs shared by the scenario-driven goldens.
_RUN_KWARGS = dict(
    horizon=40.0,
    sample_interval=1.0,
    ensure_interval=2.0,
    num_nodes=2,
    ranks_per_node=1,
    seed=0,
)


def _bank_ntp_step(resync_age: float | None) -> TimeSeriesBank:
    bank = TimeSeriesBank()
    with run_context(timeseries=bank):
        run_recovery(
            make_scenario("ntp_step"), resync_age=resync_age, **_RUN_KWARGS
        )
    return bank


def _bank_thermal() -> TimeSeriesBank:
    # Amplified skew ramp so the accumulated error slope clears the
    # drift threshold well within the 40 s horizon.
    bank = TimeSeriesBank()
    with run_context(timeseries=bank):
        run_recovery(
            make_scenario("thermal_cycle", skew_delta=4e-5),
            resync_age=None,
            **_RUN_KWARGS,
        )
    return bank


def _bank_stuck() -> TimeSeriesBank:
    # A frozen estimator: constant non-zero error for 10 samples, then a
    # healthy tail.  Rank 2 flat-lines at exactly 0.0 — legitimate exact
    # agreement that must NOT fire.
    bank = TimeSeriesBank()
    for i in range(10):
        bank.sample("clock.error", float(i), 42e-6, rank=1)
        bank.sample("clock.error", float(i), 0.0, rank=2)
    for i in range(10, 14):
        bank.sample("clock.error", float(i), 1e-6 * i, rank=1)
        bank.sample("clock.error", float(i), 0.0, rank=2)
    return bank


def _bank_stale() -> TimeSeriesBank:
    # A service run where a mid-run drift episode pushes the stale-read
    # rate out of tolerance for ~6 s (warning), with a one-sample blip
    # at t=20 that the sustain window must ignore.  The second series
    # crosses the critical rate.
    bank = TimeSeriesBank()
    for i in range(30):
        t = float(i)
        rate = 0.08 if 8 <= i <= 14 else (0.05 if i == 20 else 0.0)
        bank.sample("service.stale_rate", t, rate)
        crit = 0.6 if 8 <= i <= 14 else 0.0
        bank.sample("service.stale_rate", t, crit, rank=1)
    return bank


def _bank_depth() -> TimeSeriesBank:
    # Depth ratios from four traced runs: a healthy tree round (0.67),
    # one exactly at the bound (1.0, must NOT fire), one zig-zagging
    # past it (1.4 → warning), and one twice the bound (2.5 → critical).
    # A single sample per run is the normal case.
    bank = TimeSeriesBank()
    for t, ratio in ((10.1, 0.67), (10.2, 1.0), (10.3, 1.4), (10.4, 2.5)):
        bank.sample(DEPTH_METRIC, t, ratio)
    return bank


def _bank_byzantine() -> TimeSeriesBank:
    # A six-rank cohort: four converged at the ~2-3 us level, rank 6
    # parked at 150 us (12x the floored baseline → warning) and rank 3
    # at 800 us (64x → critical).  The "tiny" scope has only two series
    # — below the minimum cohort — so its huge outlier must NOT fire.
    bank = TimeSeriesBank()
    for i in range(6):
        t = float(i)
        for rank, err in ((1, 2e-6), (2, -3e-6), (4, 2.5e-6), (5, -2e-6)):
            bank.sample("clock.error", t, err, rank=rank)
        bank.sample("clock.error", t, 8e-4, rank=3)
        bank.sample("clock.error", t, 150e-6, rank=6)
        with bank.scoped("tiny"):
            bank.sample("clock.error", t, 1e-6, rank=1)
            bank.sample("clock.error", t, 5e-3, rank=2)
    return bank


def _bank_congestion() -> TimeSeriesBank:
    # Three scopes of queueing sojourns: "hot" sustains a standing
    # queue while its clock errors breach tolerance (critical), "warm"
    # sustains one with healthy clocks (warning), and "cool" has a
    # two-sample blip shorter than the window (no finding).
    bank = TimeSeriesBank()
    with bank.scoped("hot"):
        for i in range(16):
            t = 0.002 * i
            bank.sample(QUEUE_METRIC, t, 80e-6, rank=0)
            bank.sample("clock.error", t, 250e-6, rank=1)
    with bank.scoped("warm"):
        for i in range(16):
            t = 0.002 * i
            bank.sample(QUEUE_METRIC, t, 60e-6, rank=0)
            bank.sample("clock.error", t, 1e-6, rank=1)
    with bank.scoped("cool"):
        for t in (0.0, 0.004):
            bank.sample(QUEUE_METRIC, t, 90e-6, rank=0)
            bank.sample("clock.error", t, 1e-6, rank=1)
    return bank


def _findings(case: str) -> list[dict]:
    if case == "desync_breach":
        found = detect_desync_breaches(_bank_ntp_step(None))
    elif case == "resync_latency":
        found = detect_resync_latency(_bank_ntp_step(8.0))
    elif case == "drift_excursion":
        found = detect_drift_excursions(_bank_thermal())
    elif case == "stuck_clock":
        found = detect_stuck_clocks(_bank_stuck())
    elif case == "stale_read":
        found = detect_stale_reads(_bank_stale())
    elif case == "depth_anomaly":
        found = detect_depth_anomalies(_bank_depth())
    elif case == "byzantine_suspect":
        found = detect_byzantine_suspects(_bank_byzantine())
    elif case == "congestion_desync":
        found = detect_congestion_desync(_bank_congestion())
    else:  # pragma: no cover - test bookkeeping
        raise ValueError(case)
    return [f.to_dict() for f in found]


CASES = (
    "desync_breach", "resync_latency", "drift_excursion", "stuck_clock",
    "stale_read", "depth_anomaly", "byzantine_suspect",
    "congestion_desync",
)


def _golden_path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, f"health_{case}.json")


def _assert_matches_golden(case: str) -> None:
    path = _golden_path(case)
    assert os.path.exists(path), (
        f"missing golden {path}; regenerate with "
        "`PYTHONPATH=src python tests/obs/test_health.py --regen`"
    )
    with open(path) as fh:
        golden = json.load(fh)
    assert _findings(case) == golden


class TestGoldenFindings:
    def test_desync_breach_golden(self):
        _assert_matches_golden("desync_breach")

    def test_resync_latency_golden(self):
        _assert_matches_golden("resync_latency")

    def test_drift_excursion_golden(self):
        _assert_matches_golden("drift_excursion")

    def test_stuck_clock_golden(self):
        _assert_matches_golden("stuck_clock")

    def test_stale_read_golden(self):
        _assert_matches_golden("stale_read")

    def test_depth_anomaly_golden(self):
        _assert_matches_golden("depth_anomaly")

    def test_byzantine_suspect_golden(self):
        _assert_matches_golden("byzantine_suspect")

    def test_congestion_desync_golden(self):
        _assert_matches_golden("congestion_desync")


class TestDetectorSemantics:
    def test_ntp_step_baseline_breaches_but_resync_recovers(self):
        baseline = detect_desync_breaches(_bank_ntp_step(None))
        assert baseline, "a 500us step with no resync must breach"
        assert all(f.severity == "critical" for f in baseline)

        resynced = _bank_ntp_step(8.0)
        latencies = detect_resync_latency(resynced)
        assert latencies, "the fault marker must produce a latency finding"
        assert any(f.severity in ("info", "warning") for f in latencies), (
            "periodic resync must re-enter tolerance before the horizon"
        )

    def test_stuck_ignores_exact_zero_plateaus(self):
        found = detect_stuck_clocks(_bank_stuck())
        assert found
        assert all(f.rank == 1 for f in found), (
            "rank 2's constant-zero series is exact agreement, not a "
            "stuck estimator"
        )

    def test_thresholds_are_tunable(self):
        bank = _bank_stuck()
        strict = HealthThresholds(stuck_min_points=3, stuck_span=0.5)
        lax = HealthThresholds(stuck_min_points=100)
        assert detect_stuck_clocks(bank, strict)
        assert not detect_stuck_clocks(bank, lax)

    def test_stale_read_severity_and_sustain_window(self):
        found = detect_stale_reads(_bank_stale())
        # The blip at t=20 spans 0 s: filtered by the sustain window.
        assert len(found) == 2
        by_rank = {f.rank: f for f in found}
        assert by_rank[None].severity == "warning"
        assert by_rank[1].severity == "critical"
        # A lax tolerance silences the warning-level series.
        lax = HealthThresholds(stale_rate_tolerance=0.1)
        assert all(f.rank == 1 for f in detect_stale_reads(_bank_stale(), lax))

    def test_depth_anomaly_thresholds_and_severity(self):
        found = detect_depth_anomalies(_bank_depth())
        # 0.67 and exactly-1.0 are healthy; 1.4 warns, 2.5 is critical.
        assert [(f.value, f.severity) for f in found] == [
            (1.4, "warning"), (2.5, "critical"),
        ]
        assert all(f.detector == "depth_anomaly" for f in found)
        # A single sample is enough for this detector (one per traced
        # run is the normal case) and thresholds stay tunable.
        lax = HealthThresholds(depth_ratio=3.0)
        assert not detect_depth_anomalies(_bank_depth(), lax)

    def test_byzantine_outlier_ranks_and_cohort_minimum(self):
        found = detect_byzantine_suspects(_bank_byzantine())
        # The two-series "tiny" scope is below the cohort minimum, so
        # only the main scope's outliers fire: rank 6 warns, rank 3 is
        # critical.
        assert [(f.rank, f.severity) for f in found] == [
            (3, "critical"), (6, "warning"),
        ]
        lax = HealthThresholds(byzantine_min_series=7)
        assert not detect_byzantine_suspects(_bank_byzantine(), lax)

    def test_byzantine_ignores_converged_cohorts(self):
        bank = TimeSeriesBank()
        for i in range(6):
            for rank in range(1, 6):
                bank.sample(
                    "clock.error", float(i), 1e-6 * rank, rank=rank
                )
        assert not detect_byzantine_suspects(bank), (
            "a converged cohort below desync tolerance has no suspects"
        )

    def test_congestion_escalates_when_scope_desyncs(self):
        found = detect_congestion_desync(_bank_congestion())
        by_scope = {f.series.split("::")[0]: f for f in found}
        # The "cool" blip spans less than the window: filtered.
        assert set(by_scope) == {"hot", "warm"}
        assert by_scope["hot"].severity == "critical"
        assert by_scope["warm"].severity == "warning"
        lax = HealthThresholds(queue_delay_tolerance=1e-3)
        assert not detect_congestion_desync(_bank_congestion(), lax)

    def test_verdict_always_reports_all_detectors(self):
        verdict = evaluate_health(TimeSeriesBank())
        assert set(verdict.detectors) == set(CASES)
        assert verdict.status == "ok"
        assert verdict.series_scanned == 0

    def test_verdict_status_is_worst_severity(self):
        verdict = evaluate_health(_bank_ntp_step(None))
        assert verdict.status == "critical"
        assert verdict.detectors["desync_breach"]["worst"] == "critical"
        # Sorted most-severe first.
        sevs = [f.severity for f in verdict.findings]
        order = {"critical": 0, "warning": 1, "info": 2}
        assert sevs == sorted(sevs, key=order.__getitem__)


def _regen() -> None:  # pragma: no cover - manual tool
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in CASES:
        path = _golden_path(case)
        with open(path, "w") as fh:
            json.dump(_findings(case), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
