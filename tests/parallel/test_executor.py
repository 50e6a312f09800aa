"""Unit tests for the parallel job executor and seed derivation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.check import MAX_VIOLATIONS, CheckReport, Violation
from repro.check.config import flag_violations
from repro.cluster.machines import JUPITER
from repro.context import current_context, run_context
from repro.experiments import scenario_degradation
from repro.experiments.common import QUICK, run_sync_accuracy_campaign
from repro.obs.events import CountingSink
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    JobSpec,
    job_seeds,
    resolve_jobs,
    run_jobs,
    seed_int,
)


def _draw(seedseq: np.random.SeedSequence, n: int) -> list[float]:
    """Module-level job function: picklable, deterministic per seed."""
    rng = np.random.default_rng(seedseq)
    return rng.random(n).tolist()


def _fail() -> None:
    raise RuntimeError("worker job failed")


def _check_mode() -> str | None:
    return current_context().check


def _plant(index: int, count: int) -> None:
    """Module-level job: flag ``count`` violations named after ``index``."""
    flag_violations(
        [Violation(rule="planted", message=f"job {index} #{k}")
         for k in range(count)],
        f"job{index}",
    )


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)


class TestJobSeeds:
    def test_deterministic_and_distinct(self):
        a = job_seeds(42, 8)
        b = job_seeds(42, 8)
        assert len(a) == 8
        states = {s.generate_state(2).tobytes() for s in a}
        assert len(states) == 8  # spawn children never collide
        for x, y in zip(a, b):
            assert (
                x.generate_state(2).tobytes() == y.generate_state(2).tobytes()
            )

    def test_prefix_stable_under_larger_spawns(self):
        # Growing a campaign keeps the seeds of the existing jobs.
        small = job_seeds(7, 3)
        large = job_seeds(7, 10)
        for x, y in zip(small, large):
            assert (
                x.generate_state(2).tobytes() == y.generate_state(2).tobytes()
            )

    def test_seed_int_deterministic(self):
        s = job_seeds(0, 1)[0]
        assert seed_int(s) == seed_int(job_seeds(0, 1)[0])
        # seed_int must not consume the sequence's spawn/draw state.
        assert seed_int(s) == seed_int(s)


class TestRunJobs:
    def _specs(self, n=6):
        return [
            JobSpec(fn=_draw, args=(seed, 4), label=f"job{i}")
            for i, seed in enumerate(job_seeds(0, n))
        ]

    def test_serial_matches_parallel(self):
        serial = run_jobs(self._specs(), jobs=1)
        parallel = run_jobs(self._specs(), jobs=3)
        assert serial == parallel  # bit-identical, submission order

    def test_observability_merged(self):
        sink = CountingSink()
        metrics = MetricsRegistry()
        with run_context(sink=sink, metrics=metrics):
            run_jobs(self._specs(), jobs=2)
        assert metrics.counter("parallel.jobs.completed").value == 6
        assert metrics.gauge("parallel.workers").value == 2

    def test_serial_publishes_metrics_too(self):
        metrics = MetricsRegistry()
        with run_context(metrics=metrics):
            run_jobs(self._specs(), jobs=1)
        assert metrics.counter("parallel.jobs.completed").value == 6
        assert metrics.gauge("parallel.workers").value == 1

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="worker job failed"):
            run_jobs([JobSpec(fn=_fail)], jobs=2)

    def test_empty_specs(self):
        assert run_jobs([], jobs=4) == []

    @staticmethod
    def _planted(jobs: int, count: int) -> CheckReport:
        report = CheckReport()
        specs = [JobSpec(fn=_plant, args=(i, count)) for i in range(6)]
        with run_context(check="report", check_report=report):
            run_jobs(specs, jobs=jobs)
        return report

    def test_violations_come_back_in_submission_order(self):
        serial = self._planted(jobs=1, count=1)
        parallel = self._planted(jobs=2, count=1)
        assert [v.message for v in parallel.violations] == [
            f"job {i} #0" for i in range(6)
        ]
        assert parallel.to_dict() == serial.to_dict()

    def test_violation_cap_keeps_the_same_first_entries(self):
        """Past the cap, the first MAX_VIOLATIONS in submission order
        survive whatever the worker count."""
        count = MAX_VIOLATIONS // 4  # 6 jobs flag 1.5x the cap
        serial = self._planted(jobs=1, count=count)
        parallel = self._planted(jobs=2, count=count)
        first = [f"job {i} #{k}" for i in range(6) for k in range(count)]
        assert [v.message for v in parallel.violations] == (
            first[:MAX_VIOLATIONS]
        )
        assert parallel.dropped == 6 * count - MAX_VIOLATIONS
        assert parallel.to_dict() == serial.to_dict()

    def test_check_mode_reaches_workers(self):
        specs = [JobSpec(fn=_check_mode) for _ in range(2)]
        with run_context(check="strict"):
            assert run_jobs(specs, jobs=2) == ["strict", "strict"]
        assert run_jobs(specs, jobs=2) == [None, None]


class TestWorkerChecking:
    """Every simulated job of a campaign is checked, wherever it runs."""

    TINY = replace(QUICK, num_nodes=2, ranks_per_node=2, nfitpoints=4,
                   nexchanges=4, nmpiruns=2)
    LABELS = ["hca/4/skampi_offset/4", "jk/4/skampi_offset/2"]

    def _report(self, jobs: int) -> CheckReport:
        report = CheckReport()
        with run_context(check="report", check_report=report):
            run_sync_accuracy_campaign(
                JUPITER, self.LABELS, scale=self.TINY, seed=0, jobs=jobs
            )
        return report

    def test_report_mode_checks_every_job(self):
        serial = self._report(jobs=1)
        parallel = self._report(jobs=2)
        njobs = len(self.LABELS) * self.TINY.nmpiruns
        assert serial.runs == parallel.runs == njobs
        assert serial.events_checked == parallel.events_checked > 0
        assert serial.ok and parallel.ok
        assert serial.to_dict() == parallel.to_dict()

    def _scenario_report(self, jobs: int) -> CheckReport:
        report = CheckReport()
        with run_context(check="report", check_report=report):
            scenario_degradation.run("quick", jobs=jobs)
        return report

    def test_scenario_cells_are_checked_through_the_context(self):
        """The scenario harness takes its check mode only from the run
        context: 5 presets x 2 labels x 2 rounds x 2 twins = 40 runs."""
        serial = self._scenario_report(jobs=1)
        parallel = self._scenario_report(jobs=2)
        assert serial.runs == parallel.runs == 40
        assert serial.events_checked == parallel.events_checked == 79_345
        assert serial.to_dict() == parallel.to_dict()
