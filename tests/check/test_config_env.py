"""Check activation through the run context, the context-held report,
the record's report file, and the Simulation wiring."""

from __future__ import annotations

import argparse
import gc
import json
import os
import weakref

import pytest

from repro.check import CheckReport, SanitizerSink, TeeSink, checking
from repro.check.config import flag_violations
from repro.context import current_context, run_context
from repro.experiments.record import Record
from repro.obs.events import RecordingSink
from tests.conftest import run_spmd


class TestActivation:
    def test_off_by_default(self):
        assert current_context().check is None
        assert current_context().check_report is None

    def test_run_context_installs_report(self):
        report = CheckReport()
        with run_context(check="report", check_report=report):
            assert current_context().check == "report"
            assert current_context().check_report is report
        assert current_context().check is None
        assert current_context().check_report is None

    def test_run_context_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            with run_context(check="loose"):
                pass
        assert current_context().check is None

    def test_checking_restores_previous(self):
        with run_context(check="report"):
            with checking("strict"):
                assert current_context().check == "strict"
            assert current_context().check == "report"


class TestReportFiles:
    def test_append_and_aggregate(self, tmp_path):
        """Runs flagged under a record's context land in its one
        ``check_report.json``, which the manifest lists; nothing else is
        written beside the manifest's artifacts."""
        args = argparse.Namespace(
            record=str(tmp_path), check=True, profile=False, trace=False,
            jobs=1, scale="quick", seed=0,
        )
        record = Record(args, ["fig3"])
        with record.context():
            flag_violations([], "a", runs=1, events_checked=10)
            flag_violations([], "b", runs=1, events_checked=5)
        assert record.finish({}) == 0
        data = json.loads((tmp_path / "check_report.json").read_text())
        assert data["ok"] is True and data["runs"] == 2
        assert data["events_checked"] == 15
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["manifest.json", *manifest["artifacts"]]
        )
        assert "check_report.json" in manifest["artifacts"]


class TestSimulationWiring:
    @staticmethod
    def body(ctx, comm):
        total = yield from comm.allreduce(1)
        return total

    def test_env_attaches_checker(self):
        with run_context(check="strict"):
            sim, res = run_spmd(self.body)
        assert isinstance(sim.checker, SanitizerSink)
        assert res.check_report is not None
        assert res.check_report.ok and res.check_report.runs == 1

    def test_explicit_param_overrides_env(self):
        sim, res = run_spmd(self.body)  # context off, no explicit param
        assert sim.checker is None
        assert res.check_report is None
        with run_context(check="strict"):
            sim, res = run_spmd(self.body, check="report")
        assert sim.checker.mode == "report"
        assert res.check_report.ok

    def test_shared_registry_counts_each_run_once(self):
        """A registry metering several runs (the rounds of a scenario
        cell) holds the earlier runs' counters; the metrics cross-check
        compares only this run's increment with its event stream."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with run_context(metrics=registry):
            reports = [run_spmd(self.body, check="strict")[1].check_report
                       for _ in range(2)]
        assert all(r.ok for r in reports)
        assert registry.merged_counter("engine.messages.sent") > 0

    def test_checker_tees_with_user_sink(self):
        """A user sink still records everything when checking is on."""
        from repro.cluster.netmodels import ideal_network
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation

        sink = RecordingSink()
        machine = Machine(num_nodes=2, sockets_per_node=1,
                          cores_per_socket=1, ranks_per_node=1,
                          name="teebox")
        sim = Simulation(machine=machine, network=ideal_network(), seed=0,
                         sink=sink, check="strict")
        assert isinstance(sim.engine.sink, TeeSink)
        res = sim.run(self.body)
        assert len(sink.events) == res.check_report.events_checked > 0

    def test_checked_run_leaves_no_cycle(self):
        """A checked, metered run is freed by reference counting alone.

        An ``emit`` that dispatched through a dict of the checker's own
        bound methods would tie the checker into a cycle, keeping it (and
        everything it tracked) alive until a full collection."""
        from repro.obs import MetricsRegistry, TimeSeriesBank

        gc.collect()
        gc.disable()
        try:
            sim = run_spmd(self.body, check="strict",
                           metrics=MetricsRegistry(),
                           timeseries=TimeSeriesBank())[0]
            checker = weakref.ref(sim.checker)
            engine = weakref.ref(sim.engine)
            del sim
            assert checker() is None
            assert engine() is None
        finally:
            gc.enable()

    def test_report_mode_merges_into_context_report(self):
        merged = CheckReport()
        with run_context(check="report", check_report=merged):
            run_spmd(self.body)
            run_spmd(self.body, seed=1)
        assert merged.runs == 2 and merged.ok

    def test_results_identical_with_checking(self):
        """Checking is passive: values and stats are bit-identical."""
        _, plain = run_spmd(self.body, seed=7)
        with run_context(check="strict"):
            _, checked = run_spmd(self.body, seed=7)
        assert plain.values == checked.values
        assert plain.engine_stats == checked.engine_stats
