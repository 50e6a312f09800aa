"""Clock-health telemetry walkthrough: sampling, detectors, HTML report.

Runs the same fault-recovery comparison twice — once with no periodic
resync, once re-synchronizing every 8 simulated seconds — against an
NTP-style 500 microsecond clock step, with a :class:`TimeSeriesBank`
attached (see ``repro.obs.timeseries``):

1. the engine, sync algorithms, resync loop, and fault evaluator deposit
   time series into the bank (per-rank estimated-vs-true clock error,
   drift-model slopes, sync-round durations, NIC backlog) plus fault and
   resync markers;
2. the anomaly detectors (``repro.obs.health``) scan the error series for
   drift excursions, desynchronization breaches, slow fault recovery,
   and stuck clock estimates;
3. the whole run is written as a self-contained ``report.html``
   (inline-SVG sparklines, no external assets) plus machine-readable
   ``report.json``.

Run:  python examples/health_report.py
"""

from repro.context import run_context
from repro.faults.evaluate import run_recovery
from repro.faults.scenarios import make_scenario
from repro.obs import (
    MetricsRegistry,
    TimeSeriesBank,
    build_report,
    evaluate_health,
)
from repro.obs.report import write_report

bank = TimeSeriesBank()
metrics = MetricsRegistry()

if __name__ == "__main__":
    scenario = make_scenario("ntp_step")
    with run_context(timeseries=bank, metrics=metrics):
        for resync_age in (None, 8.0):
            outcome = run_recovery(
                scenario,
                resync_age=resync_age,
                horizon=40.0,
                sample_interval=1.0,
                num_nodes=2,
                ranks_per_node=1,
                seed=0,
            )
            policy = "baseline" if resync_age is None else "resync"
            worst = max(err for _, err in outcome.samples)
            print(f"{policy:>9}: max clock spread = "
                  f"{worst * 1e6:8.1f} us "
                  f"(tail {outcome.tail_max() * 1e6:.1f} us)")

    # The detectors read the sampled series; nothing re-runs.
    verdict = evaluate_health(bank)
    print(f"\nhealth status: {verdict.status} "
          f"({len(verdict.findings)} findings over "
          f"{verdict.series_scanned} error series)")
    for name, summary in verdict.detectors.items():
        print(f"  {name}: {summary['findings']} findings "
              f"(worst {summary['worst']})")
    for finding in verdict.findings[:5]:
        print(f"  [{finding.severity}] {finding.series}: "
              f"{finding.message}")

    report = build_report(
        bank=bank,
        metrics=metrics,
        verdict=verdict,
        meta={"targets": ["fault_recovery"], "scenario": "ntp_step"},
    )
    json_path, html_path = write_report(report, ".")
    print(f"\nwrote {json_path} and {html_path} "
          f"— open the HTML in any browser")
