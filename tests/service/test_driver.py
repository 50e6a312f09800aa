"""Tests for the end-to-end service driver (repro.service.driver)."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.check import CheckReport
from repro.check.config import checking
from repro.context import current_context, run_context
from repro.errors import ConfigurationError, InvariantViolation
from repro.obs.health import evaluate_health
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.report import build_report
from repro.obs.timeseries import TimeSeriesBank
from repro.parallel import JobSpec, job_seeds, run_jobs, seed_int
from repro.service import (
    ClockService,
    ErrorBoundResyncPolicy,
    PeriodicResyncPolicy,
    ServiceConfig,
    SimulatedCluster,
    WorkloadSpec,
    run_service,
)
from repro.experiments.service_slo import _SCALE, DEFAULT_SLO, _policy_job
from repro.service.driver import FIT_WINDOW, _reads
from repro.service.epoch import ModelEpoch
from repro.service.workload import generate, respond

QUICK = ServiceConfig(num_ranks=4)
SHORT = WorkloadSpec(mode="open", duration=12.0, rate=1500.0)


def volatile_free(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("wall_s")
    return fields


class TestSimulatedCluster:
    def test_sync_advances_the_generation(self):
        cluster = SimulatedCluster(QUICK, np.random.SeedSequence(0))
        assert cluster.generation == -1
        cluster.sync(2.0)
        assert cluster.generation == 0
        assert cluster.synced_at == 2.0
        assert 0.0 < cluster.base_error < 1e-4
        assert len(cluster.models()) == 4
        assert cluster.models()[0].slope == 0.0

    def test_fits_track_the_true_offsets(self):
        cluster = SimulatedCluster(QUICK, np.random.SeedSequence(1))
        cluster.sync(3.0)
        t = 3.5
        for rank in (1, 2, 3):
            local = cluster.clocks[rank].read(t)
            estimated = cluster.models()[rank].apply(local)
            truth = cluster.clocks[0].read_raw(t)
            assert abs(estimated - truth) < 20e-6

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(num_ranks=1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(slo=0.0)

    @pytest.mark.parametrize("field", ["slo"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        # NaN passes every "<= 0" check, so finiteness is its own rule.
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig(**{field: value})


class TestRunService:
    def test_deterministic_across_runs(self):
        a = run_service(PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5)
        b = run_service(PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5)
        assert volatile_free(a) == volatile_free(b)

    def test_reports_sane_numbers(self):
        res = run_service(PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5)
        assert res.queries == pytest.approx(18_000, rel=0.1)
        assert res.syncs == 3
        assert res.policy == "periodic[4s]"
        assert res.workload == "open[1500/s]"
        assert 0.0 < res.latency_p50 < res.latency_p999 <= 0.01
        assert 0.0 <= res.clock_error_p50 <= res.clock_error_p99
        assert res.clock_error_p99 <= res.clock_error_max < 1e-3
        # The policy loop's epoch() call takes the one miss per
        # generation, so every query-path access is a hit.
        assert res.cache_misses == res.syncs
        assert res.cache_hits == res.queries

    def test_more_frequent_resync_reduces_error(self):
        often = run_service(
            PeriodicResyncPolicy(2.0), SHORT, QUICK, seed=5
        )
        rarely = run_service(
            PeriodicResyncPolicy(11.0), SHORT, QUICK, seed=5
        )
        assert often.syncs > rarely.syncs
        assert often.clock_error_p99 < rarely.clock_error_p99

    def test_errorbound_policy_meets_its_slo(self):
        res = run_service(
            ErrorBoundResyncPolicy(slo=QUICK.slo), SHORT, QUICK, seed=5
        )
        assert res.slo_met
        assert res.clock_error_p99 <= QUICK.slo

    def test_check_mode_passes_on_a_clean_run(self):
        with checking("strict"):
            res = run_service(
                PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5
            )
        assert res.queries > 0

    @staticmethod
    def _skew_batch_answers(monkeypatch):
        """Make every batch answer diverge from the scalar model."""
        global_of = ModelEpoch.global_of
        monkeypatch.setattr(
            ModelEpoch, "global_of",
            lambda self, ranks, readings: global_of(self, ranks, readings)
            + 1e-9,
        )

    def test_check_mode_strict_raises_on_a_broken_batch(self, monkeypatch):
        self._skew_batch_answers(monkeypatch)
        with checking("strict"):
            with pytest.raises(InvariantViolation, match="service-batch"):
                run_service(PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5)

    def test_check_mode_strict_raises_on_a_broken_compare(self, monkeypatch):
        """Compare answers are checked too, not only now and translate."""
        compare_batch = ClockService.compare_batch

        def skewed(self, *args):
            values, bounds, stale = compare_batch(self, *args)
            return values + 1e-9, bounds, stale

        monkeypatch.setattr(ClockService, "compare_batch", skewed)
        compares_only = dataclasses.replace(SHORT, ops_mix=(0, 0, 1))
        with checking("strict"):
            with pytest.raises(InvariantViolation, match="service-batch"):
                run_service(
                    PeriodicResyncPolicy(4.0), compares_only, QUICK, seed=5
                )

    def test_check_mode_report_records_and_carries_on(self, monkeypatch):
        self._skew_batch_answers(monkeypatch)
        report = CheckReport()
        with run_context(check="report", check_report=report):
            res = run_service(PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5)
        assert res.queries > 0
        assert not report.ok
        assert {v.rule for v in report.violations} == {"service-batch"}

    def test_check_mode_report_counts_a_clean_run(self):
        """A clean checked run still leaves its report: one run and the
        answers the sanitizer pass recomputed."""
        report = CheckReport()
        with run_context(check="report", check_report=report):
            run_service(PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5)
        assert report.ok
        assert report.runs == 1
        assert report.events_checked > 0

    @staticmethod
    def _latencies(seed: int) -> np.ndarray:
        """The latency array ``run_service(..., SHORT, QUICK, seed)`` scores."""
        _cluster_seed, workload_seed = np.random.SeedSequence(seed).spawn(2)
        stream = generate(SHORT, QUICK.num_ranks, workload_seed)
        times = stream.times + FIT_WINDOW
        return respond(times) - times

    def test_emits_metrics_and_timeseries(self):
        registry = MetricsRegistry()
        bank = TimeSeriesBank()
        with run_context(metrics=registry, timeseries=bank):
            res = run_service(
                PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5
            )
        assert registry.counter("service.queries").value == res.queries
        assert registry.counter("service.resyncs").value == res.syncs
        # The result's quantiles are exact over the run's own arrays ...
        latencies = self._latencies(seed=5)
        assert latencies.size == res.queries
        assert [res.latency_p50, res.latency_p99, res.latency_p999] == [
            float(np.quantile(latencies, q)) for q in (0.5, 0.99, 0.999)
        ]
        assert res.latency_mean == math.fsum(latencies) / latencies.size
        # ... and the registry's histograms summarize the same arrays:
        # exact count/min/max/mean, reservoir-estimated quantiles.
        hist = registry.histogram("service.latency")
        assert hist.count == res.queries
        assert hist.min_value == latencies.min()
        assert hist.max_value == latencies.max()
        assert hist.mean == res.latency_mean
        assert hist.quantile(0.5) == pytest.approx(res.latency_p50, rel=0.05)
        errors = registry.histogram("service.clock_error")
        assert errors.count == res.queries
        assert errors.min_value >= 0.0
        assert errors.max_value == res.clock_error_max
        assert errors.quantile(0.5) == pytest.approx(
            res.clock_error_p50, rel=0.05
        )
        names = bank.names()
        assert "service.stale_rate" in names
        assert "service.error_bound" in names
        assert "clock.error" in names
        marks = bank.marks_named("resync")
        assert len(marks) == res.syncs - 1

    def test_no_registry_means_no_histogram(self, monkeypatch):
        assert current_context().metrics is None
        built = []
        init = Histogram.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Histogram, "__init__", counting_init)
        bare = run_service(PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5)
        assert built == []
        # Attaching a registry changes no reported number.
        with run_context(metrics=MetricsRegistry()):
            observed = run_service(
                PeriodicResyncPolicy(4.0), SHORT, QUICK, seed=5
            )
        assert len(built) == 2
        assert volatile_free(bare) == volatile_free(observed)


class TestReadsOncePerStream:
    @pytest.mark.parametrize("raw", [False, True], ids=["quantized", "raw"])
    def test_epoch_slices_equal_per_epoch_reads(self, raw):
        """Why run_service may read per epoch: reads of the epochs
        between resync instants are exactly the slices of one read of
        the whole stream (on fresh clocks, so lazy segment growth is
        covered), so an epoch's readings and ground truth need not
        outlive it."""
        stream = generate(SHORT, QUICK.num_ranks, np.random.SeedSequence(4))
        times = stream.times + FIT_WINDOW

        def fresh_clocks():  # spawn() advances a SeedSequence: new one each
            return SimulatedCluster(QUICK, np.random.SeedSequence(3)).clocks

        whole = _reads(fresh_clocks(), stream.ranks, times, raw=raw)
        clocks = fresh_clocks()
        edges = np.searchsorted(times, [0.0, 4.0, 4.25, 9.0, 1e9])
        for a, b in zip(edges, edges[1:]):
            part = _reads(clocks, stream.ranks[a:b], times[a:b], raw=raw)
            assert np.array_equal(part, whole[a:b])


class TestWorkingSet:
    #: Bytes per query held for the whole run: arrival time 8, shape 1,
    #: rank 8, second rank 8, latency 8, clock error 8.
    RUN_BYTES = 41
    #: Bytes per query of the epoch being served, at that epoch's peak.
    EPOCH_BYTES = 96

    def test_peak_is_the_run_arrays_plus_one_epoch(self):
        """The tracemalloc peak of one ``run_service`` call on the quick
        sweep's closed-loop cell stays within ``RUN_BYTES`` per query
        plus ``EPOCH_BYTES`` per query of the largest epoch.

        ``EPOCH_BYTES`` counts what lives while the ``now`` batch (60 %
        of the queries) is served: the epoch's readings, answers, bounds
        and ground truth (8 B each) and stale flags (1 B), 33 B; the
        shape's stream positions, 0.6 x 8 B; and that call's gathered
        ranks, readings and times, its three results and the model
        evaluation's temporaries, about twelve float64 arrays over 0.6
        of the epoch, 58 B.  33 + 5 + 58 = 96 B.

        Whole-stream scoring arrays break it: the peak is about 122 B
        per query when every scoring array spans the stream, and about
        96 B when only the readings and ground truth are taken once per
        stream and sliced per epoch.
        """
        num_ranks, _periods, _open, closed = _SCALE["quick"]
        config = ServiceConfig(num_ranks=num_ranks, slo=DEFAULT_SLO)
        policy = ErrorBoundResyncPolicy(slo=DEFAULT_SLO)
        # A run with a bank attached gives the resync instants (and
        # warms every lazy import up before the measured run).
        bank = TimeSeriesBank()
        with run_context(timeseries=bank):
            run_service(policy, closed, config, seed=0)
        resyncs = [t for _rank, t, _label in bank.marks_named("resync")]
        _cluster_seed, workload_seed = np.random.SeedSequence(0).spawn(2)
        times = generate(closed, num_ranks, workload_seed).times
        times += FIT_WINDOW
        edges = np.searchsorted(times, [0.0, *resyncs, math.inf])
        largest_epoch = int(np.diff(edges).max())

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            res = run_service(policy, closed, config, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()

        assert res.queries == times.size
        bound = (
            self.RUN_BYTES * res.queries + self.EPOCH_BYTES * largest_epoch
        )
        assert peak <= bound, (
            f"peak {peak / res.queries:.1f} B/query > bound "
            f"{bound / res.queries:.1f} B/query"
        )


class TestJobsMergeIdentity:
    def _report(self, jobs: int) -> dict:
        registry = MetricsRegistry()
        bank = TimeSeriesBank()
        entries = [
            (PeriodicResyncPolicy(3.0), "periodic[3s]"),
            (ErrorBoundResyncPolicy(slo=QUICK.slo), "errorbound"),
        ]
        seeds = job_seeds(0, len(entries))
        specs = [
            JobSpec(
                _policy_job,
                args=(policy, SHORT, QUICK, seed_int(child), scope),
                label=scope,
            )
            for (policy, scope), child in zip(entries, seeds)
        ]
        with run_context(metrics=registry, timeseries=bank):
            results = run_jobs(specs, jobs=jobs)
        report = build_report(
            bank=bank,
            metrics=registry,
            verdict=evaluate_health(bank),
            meta={"results": [volatile_free(r) for r in results]},
        )
        report.pop("generated_at", None)
        return report

    def test_report_identical_for_jobs_1_and_2(self):
        serial = self._report(jobs=1)
        parallel = self._report(jobs=2)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)
