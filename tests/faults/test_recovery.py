"""Acceptance tests: determinism, recovery bound, and trace export."""

import json

from repro.context import run_context
from repro.faults.evaluate import compare_recovery, run_recovery
from repro.faults.scenarios import make_scenario
from repro.obs.chrome_trace import engine_events_to_chrome
from repro.obs.events import FaultInject, RecordingSink

QUICK = dict(horizon=50.0, num_nodes=4, ranks_per_node=2, seed=0)


class TestDeterminism:
    def test_same_scenario_and_seed_reproduce_bit_identically(self):
        scenario = make_scenario("ntp_step")
        sinks = [RecordingSink(), RecordingSink()]
        reports = []
        for sink in sinks:
            with run_context(sink=sink):
                reports.append(run_recovery(scenario, resync_age=8.0, **QUICK))
        assert reports[0].samples == reports[1].samples
        assert reports[0].resync_rounds == reports[1].resync_rounds
        assert reports[0].engine_stats == reports[1].engine_stats
        fault_times = [
            [(e.time, e.kind, e.target) for e in sink.of_type(FaultInject)]
            for sink in sinks
        ]
        assert fault_times[0] == fault_times[1]

    def test_different_seed_differs(self):
        scenario = make_scenario("ntp_step")
        a = run_recovery(scenario, resync_age=8.0, **QUICK)
        b = run_recovery(scenario, resync_age=8.0,
                         **{**QUICK, "seed": 1})
        assert a.samples != b.samples


class TestRecovery:
    def test_resync_bounds_ntp_step_error_but_baseline_grows(self):
        reports = compare_recovery(
            make_scenario("ntp_step"), resync_age=8.0, **QUICK
        )
        base, resync = reports["baseline"], reports["resync"]
        # Without resync the 500 us step lands in the error permanently:
        # the after-fault max exceeds both the pre-fault error and the
        # step size itself (step + accumulated drift).
        assert base.phases["after"].max_error > base.phases["before"].max_error
        assert base.tail_max() > 4e-4
        # With periodic resync the post-fault error returns to the
        # pre-fault scale well before the end of the horizon.
        assert resync.tail_max() < 2e-4
        assert resync.tail_max() < base.tail_max() / 2
        assert resync.resync_rounds > 1

    def test_whole_run_adversary_is_all_during(self):
        """``--scenario delay_attack``: the attack has no end, so every
        sample of both policies falls in the ``during`` phase."""
        from repro.experiments import fault_recovery

        reports = fault_recovery.run(
            scale="quick", seed=0, scenario="delay_attack"
        )
        for policy in ("baseline", "resync"):
            report = reports[policy]
            assert report.scenario == "delay_attack"
            phases = report.phases
            assert phases["during"].nsamples == len(report.samples) > 0
            assert phases["before"].nsamples == 0
            assert phases["after"].nsamples == 0
        assert reports["resync"].resync_rounds > 1
        assert "delay_attack" in fault_recovery.format_result(reports)

    def test_report_dict_shape(self):
        report = run_recovery(
            make_scenario("ntp_step"), resync_age=8.0, **QUICK
        )
        data = report.to_dict()
        assert data["scenario"] == "ntp_step"
        assert set(data["phases"]) == {"before", "during", "after"}
        assert data["resync_rounds"] == report.resync_rounds


class TestTraceExport:
    def test_fault_spans_present_in_chrome_records(self):
        scenario = make_scenario("congestion_burst")
        sink = RecordingSink()
        with run_context(sink=sink):
            run_recovery(scenario, resync_age=8.0, **QUICK)
        records = engine_events_to_chrome(sink.events)
        spans = [r for r in records if r.get("cat") == "fault"]
        assert len(spans) == 2
        for span in spans:
            assert span["ph"] == "X"
            assert span["ts"] == 20.0 * 1e6  # true-time microseconds
            assert span["dur"] == 10.0 * 1e6
            assert span["args"]["kind"] in ("link", "nic_storm")
        resyncs = [r for r in records if r.get("name") == "resync_round"]
        assert resyncs and all(r["ph"] == "i" for r in resyncs)

    def test_cli_export_writes_fault_track(self, tmp_path):
        from repro.experiments.fault_recovery import export_chrome_traces

        info = export_chrome_traces(
            str(tmp_path), scale="quick", seed=0,
            scenario="congestion_burst",
        )
        assert info["fault_events"] == 2
        assert info["resync_events"] > 0
        with open(info["path"], encoding="utf-8") as fh:
            records = json.load(fh)
        assert any(r.get("cat") == "fault" for r in records)
