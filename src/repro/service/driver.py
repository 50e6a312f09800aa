"""Service run driver: cluster + sync oracle + workload → measurements.

One :func:`run_service` call is one policy's run: a simulated cluster of
drifting hardware clocks, a sync oracle that fits per-rank linear models
against the reference rank (the paper's offset-measurement + regression
pipeline, evaluated through the simulator's clocks with deterministic
measurement noise), a :class:`~repro.service.core.ClockService` serving
a generated query stream, and a resync policy deciding when the models
are refreshed.

Everything is vectorized, and a query's scoring arrays live only for its
epoch.  **Per stream**, 41 bytes per query: the drawn stream (arrival
times, shapes, ranks and second ranks, drawn whole so the RNG order is
fixed), the request latencies (the batching cost model over the full
arrival sequence) and the absolute clock errors, which the exact
quantiles and means need in full.  **Per epoch** (one sync generation):
the clock readings of the queries landing in it — the queried readings,
``compare``'s second readings and the ground truth — and their answers,
error bounds and staleness flags, through one batched evaluation per
query shape, all dropped when the epoch ends.  Sync fits models and
never adjusts a clock, so a :class:`~repro.simtime.hardware.HardwareClock`
reading is a function of true time alone: per-epoch reads are
bit-identical to slices of one whole-stream read.  Reported latency and
clock-error quantiles are exact, computed from the run's own arrays.
The run is a pure function of ``(policy, config, workload, seed)`` — no
wall-clock value feeds any reported quantity except the ``wall_s``
throughput figure, which never enters ``report.json``.

Observability lands on the run context's hooks (so the parallel
executor's isolate-and-merge contract applies unchanged): latency and
clock-error histograms plus service counters in the metrics registry
(fed only when one is attached; no reported number reads them back),
and per-interval ``service.stale_rate`` / ``clock.error`` /
``service.error_bound`` series with ``resync`` markers in the telemetry
bank — the series the ``stale_read`` health detector scans.

Under an active sanitizer mode (``--check``), each epoch additionally
validates the serving path: the first 8 answers of each query shape
(``now``, ``translate``, ``compare``) must be bit-identical to the scalar
model arithmetic, and served global time must be monotone per rank.  In strict mode a violation raises
:class:`~repro.errors.InvariantViolation` immediately; in report mode
serving carries on, and the run appends one report to the context's
report directory, clean or not: one run, the answers recomputed as its
``events_checked``, and the violations found.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from contextlib import nullcontext

from repro.check.config import flag_violations
from repro.check.sanitizer import Violation
from repro.context import current_context
from repro.errors import ConfigurationError
from repro.service.core import ClockService
from repro.service.slo import ResyncPolicy
from repro.service.workload import (
    OP_COMPARE,
    OP_NOW,
    OP_TRANSLATE,
    WorkloadSpec,
    generate,
    respond,
)
from repro.simtime.hardware import HardwareClock
from repro.simtime.sources import CLOCK_GETTIME, make_node_clocks
from repro.sync.linear_model import LinearDriftModel

#: The cluster's time source: drifty enough that a 20 s old model
#: matters at a tens-of-microseconds SLO (between the package default and
#: the resync tests' TWITCHY preset).
SERVICE_TIME = CLOCK_GETTIME.with_(skew_walk_sigma=3e-7)
#: Span of the offset-measurement window each fit uses, seconds.
FIT_WINDOW = 1.0
#: Offset measurements per fit.
FIT_POINTS = 24
#: Std-dev of per-measurement offset noise, seconds.
NOISE = 0.3e-6
#: Telemetry bucket width, seconds.
SAMPLE_INTERVAL = 1.0
#: Floor on the spacing between sync rounds (guards degenerate policies
#: from resyncing every batch).
MIN_RESYNC_INTERVAL = 0.25


@dataclass(frozen=True)
class ServiceConfig:
    """The cluster size and SLO of one run."""

    num_ranks: int = 8
    #: Target clock-error SLO the service reports staleness against.
    slo: float = 25e-6

    def __post_init__(self) -> None:
        if self.num_ranks < 2:
            raise ConfigurationError("num_ranks must be >= 2")
        # Chained comparisons: NaN fails every one, inf the upper bound.
        if not 0.0 < self.slo < math.inf:
            raise ConfigurationError("slo must be finite and > 0")


class SimulatedCluster:
    """Drifting per-rank clocks plus a model-fitting sync oracle.

    Implements the service's ``ModelProvider`` surface.  ``sync(t)``
    measures each rank's offset against the reference over the trailing
    fit window (through the simulated clocks, with deterministic
    Gaussian measurement noise) and fits the package's centred
    least-squares :class:`LinearDriftModel` — the same regression the
    MPI sync algorithms run, minus the message-exchange machinery the
    serving path doesn't need.
    """

    def __init__(
        self, config: ServiceConfig, seed: np.random.SeedSequence
    ) -> None:
        clock_seed, noise_seed = seed.spawn(2)
        self.clocks: list[HardwareClock] = make_node_clocks(
            config.num_ranks,
            SERVICE_TIME,
            np.random.default_rng(clock_seed),
        )
        self._noise_rng = np.random.default_rng(noise_seed)
        self.ref_rank = 0
        self.generation = -1
        self.synced_at = float("-inf")
        self.base_error = float("inf")
        self._models: list[LinearDriftModel] = []

    def models(self) -> Sequence[LinearDriftModel]:
        return self._models

    def drifts(self) -> tuple:
        return tuple(clock.drift for clock in self.clocks)

    def sync(self, t: float) -> None:
        """Fit fresh per-rank models from measurements ending at ``t``."""
        ts = np.linspace(t - FIT_WINDOW, t, FIT_POINTS)
        ref_readings = self.clocks[self.ref_rank].read_many(ts)
        models: list[LinearDriftModel] = []
        residual = 0.0
        for rank, clock in enumerate(self.clocks):
            if rank == self.ref_rank:
                models.append(LinearDriftModel.ZERO)
                continue
            local = clock.read_many(ts)
            noise = self._noise_rng.normal(0.0, NOISE, FIT_POINTS)
            offsets = local - ref_readings + noise
            model = LinearDriftModel.fit(local, offsets)
            models.append(model)
            pred = model.slope * local + model.intercept
            residual = max(residual, float(np.abs(offsets - pred).max()))
        self._models = models
        self.generation += 1
        self.synced_at = float(t)
        self.base_error = residual + self.clocks[self.ref_rank].granularity


@dataclass(frozen=True)
class ServicePolicyResult:
    """One (policy, workload) run's headline numbers (picklable)."""

    policy: str
    workload: str
    slo: float
    num_ranks: int
    duration: float
    queries: int
    syncs: int
    stale_reads: int
    stale_rate: float
    cache_hits: int
    cache_misses: int
    cache_hit_ratio: float
    latency_p50: float
    latency_p99: float
    latency_p999: float
    latency_mean: float
    clock_error_p50: float
    clock_error_p99: float
    clock_error_max: float
    #: True when the p99 served clock error stayed under the SLO.
    slo_met: bool
    #: Simulated-time throughput (queries per simulated second).
    sim_qps: float
    #: Host wall time of the serving loop (volatile — stdout only).
    wall_s: float


def _reads(
    clocks: Sequence[HardwareClock],
    ranks: np.ndarray,
    times: np.ndarray,
    raw: bool = False,
) -> np.ndarray:
    """Per-query clock readings, grouped by rank for batch evaluation."""
    out = np.empty(times.size, dtype=np.float64)
    for rank, clock in enumerate(clocks):
        queries = np.flatnonzero(ranks == rank)
        if queries.size:
            at = times[queries]
            out[queries] = (
                clock.read_raw_many(at) if raw else clock.read_many(at)
            )
    return out


#: Answers of each query shape per epoch that the sanitizer pass
#: recomputes with the scalar model arithmetic.
CHECKED_PER_SHAPE = 8


def _check_epoch(
    service: ClockService,
    ops: np.ndarray,
    ranks: np.ndarray,
    ranks2: np.ndarray,
    readings: np.ndarray,
    readings_b: np.ndarray,
    values: np.ndarray,
) -> tuple[list[Violation], int]:
    """Sanitizer pass: the first answers of each query shape equal the
    scalar model arithmetic, and served global time is monotone per
    rank.  ``readings_b`` holds the second readings of the compare
    queries only, in stream order.  Returns the violations and the
    number of answers recomputed."""
    found: list[Violation] = []
    checked = 0
    model_for = service.epoch().model_for
    for op in (OP_NOW, OP_TRANSLATE, OP_COMPARE):
        for j, i in enumerate(np.flatnonzero(ops == op)[:CHECKED_PER_SHAPE]):
            checked += 1
            global_a = model_for(int(ranks[i])).apply(float(readings[i]))
            if op == OP_NOW:
                expect = global_a
            elif op == OP_TRANSLATE:
                expect = model_for(int(ranks2[i])).apply_inverse(global_a)
            else:
                expect = global_a - model_for(int(ranks2[i])).apply(
                    float(readings_b[j])
                )
            if expect != values[i]:
                found.append(Violation(
                    rule="service-batch",
                    message=(
                        f"service batch answer diverged from scalar "
                        f"model: op={op} expected {expect!r} got "
                        f"{values[i]!r}"
                    ),
                    rank=int(ranks[i]),
                ))
    now_mask = ops == OP_NOW
    for rank in np.unique(ranks[now_mask]):
        served = values[now_mask & (ranks == rank)]
        if served.size >= 2 and np.any(np.diff(served) < 0.0):
            found.append(Violation(
                rule="service-monotone",
                message="served global time is not monotone",
                rank=int(rank),
            ))
    return found, checked


def _mean(a: np.ndarray) -> float:
    """Exactly rounded mean (``math.fsum``) of a float array.

    A function of its own, not a line of :func:`run_service`: ``fsum``
    boxes every element, and under tracemalloc each of those allocations
    looks up its caller's current line, at a cost that grows with the
    caller's size: a traced run of the quick sweep's closed-loop cell
    took 6 s with the sum inline and 0.7 s with it here.
    """
    return math.fsum(a) / a.size if a.size else 0.0


class _BucketSeries:
    """Per-``SAMPLE_INTERVAL`` telemetry, accumulated epoch by epoch.

    Per bucket: the queries served, the stale ones, and the largest
    clock error and error bound.  Counts add and maxima combine exactly,
    so the samples equal one pass over the whole run's arrays.
    """

    def __init__(self, first: float, last: float) -> None:
        self.base = int(np.floor(first / SAMPLE_INTERVAL))
        size = int(np.floor(last / SAMPLE_INTERVAL)) - self.base + 1
        self.counts = np.zeros(size, dtype=np.int64)
        self.stale = np.zeros(size, dtype=np.int64)
        self.error = np.full(size, -np.inf)
        self.bound = np.full(size, -np.inf)

    def add(
        self,
        times: np.ndarray,
        errors: np.ndarray,
        bounds: np.ndarray,
        stale: np.ndarray,
    ) -> None:
        buckets = np.floor(times / SAMPLE_INTERVAL).astype(np.int64)
        buckets -= self.base
        size = self.counts.size
        self.counts += np.bincount(buckets, minlength=size)
        self.stale += np.bincount(buckets[stale], minlength=size)
        np.maximum.at(self.error, buckets, errors)
        np.maximum.at(self.bound, buckets, bounds)

    def sample(self, bank) -> None:
        """One sample per series for each bucket that served a query,
        stamped at the bucket's end."""
        for b in np.flatnonzero(self.counts).tolist():
            t_b = (self.base + b + 1) * SAMPLE_INTERVAL
            bank.sample(
                "service.stale_rate", t_b,
                float(self.stale[b] / self.counts[b]),
            )
            bank.sample("clock.error", t_b, float(self.error[b]))
            bank.sample("service.error_bound", t_b, float(self.bound[b]))


def run_service(
    policy: ResyncPolicy,
    workload: WorkloadSpec,
    config: ServiceConfig | None = None,
    seed: int = 0,
) -> ServicePolicyResult:
    """Run one policy against one workload; score errors and latencies.

    The stream's arrival times, shapes and ranks are drawn whole, and the
    per-query latencies and clock errors are kept whole for the exact
    quantiles and means: 41 bytes per query for the run.  Everything else
    a query needs (its clock readings, ground truth, answer, bound and
    staleness flag) lives only for the epoch that serves it.
    """
    config = config or ServiceConfig()
    root = np.random.SeedSequence(seed)
    cluster_seed, workload_seed = root.spawn(2)
    cluster = SimulatedCluster(config, cluster_seed)
    stream = generate(workload, config.num_ranks, workload_seed)
    times, ops, ranks, ranks2 = (
        stream.times, stream.ops, stream.ranks, stream.ranks2
    )
    # Serving starts after the first fit window has history to fit on
    # (shifted in place: the unshifted arrivals are not kept).
    t_start = FIT_WINDOW
    times += t_start
    t_end = t_start + workload.duration
    ctx = current_context()
    metrics, bank, profiler = ctx.metrics, ctx.timeseries, ctx.profiler

    def zone(name: str):
        return profiler.zone(name) if profiler is not None else nullcontext()

    wall_t0 = time.perf_counter()
    with zone("service.sync"):
        cluster.sync(t_start)
    service = ClockService(cluster, config.slo)

    with zone("service.batching"):
        latencies = respond(times)
    latencies -= times

    clocks = cluster.clocks
    err_abs = np.empty(times.size, dtype=np.float64)
    series = (
        _BucketSeries(times[0], times[-1])
        if bank is not None and times.size else None
    )

    # The sanitizer pass: one report per run, counting the answers it
    # recomputed; strict mode raises at the first epoch with a violation.
    check_label = f"service[{policy.label()}]"
    found: list[Violation] = []
    checked = 0
    start = 0
    syncs = 1
    while start < times.size:
        epoch = service.epoch()
        t_next = max(
            policy.next_resync(epoch),
            epoch.synced_at + MIN_RESYNC_INTERVAL,
        )
        stop = int(np.searchsorted(times, min(t_next, t_end), side="left"))
        if stop > start:
            seg_t0 = time.perf_counter_ns()
            seg = slice(start, stop)
            at, seg_ops, seg_ranks, seg_ranks2 = (
                times[seg], ops[seg], ranks[seg], ranks2[seg]
            )
            # Sync fits models, it never adjusts a clock: a reading is a
            # function of true time alone, so the epoch reads its own.
            readings = _reads(clocks, seg_ranks, at)
            values = np.empty(at.size, dtype=np.float64)
            bounds = np.empty(at.size, dtype=np.float64)
            stale = np.empty(at.size, dtype=bool)
            # Both events of a compare happen at the same true instant,
            # so its ground-truth delta is identically zero.
            truth = np.zeros(at.size, dtype=np.float64)

            q = np.flatnonzero(seg_ops == OP_NOW)
            if q.size:
                values[q], bounds[q], stale[q] = service.now_batch(
                    seg_ranks[q], readings[q], at[q]
                )
                truth[q] = clocks[cluster.ref_rank].read_raw_many(at[q])

            q = np.flatnonzero(seg_ops == OP_TRANSLATE)
            if q.size:
                values[q], bounds[q], stale[q] = service.translate_batch(
                    readings[q], seg_ranks[q], seg_ranks2[q], at[q]
                )
                truth[q] = _reads(clocks, seg_ranks2[q], at[q], raw=True)

            q = np.flatnonzero(seg_ops == OP_COMPARE)
            readings_b = _reads(clocks, seg_ranks2[q], at[q])
            if q.size:
                values[q], bounds[q], stale[q] = service.compare_batch(
                    seg_ranks[q], readings[q], seg_ranks2[q], readings_b,
                    at[q],
                )

            if ctx.check is not None:
                epoch_found, epoch_checked = _check_epoch(
                    service, seg_ops, seg_ranks, seg_ranks2,
                    readings, readings_b, values,
                )
                found += epoch_found
                checked += epoch_checked
                if ctx.check == "strict":
                    flag_violations(found, check_label)

            values -= truth
            np.abs(values, out=err_abs[seg])
            if series is not None:
                series.add(at, err_abs[seg], bounds, stale)
            if profiler is not None:
                profiler.add(
                    "service.serve",
                    time.perf_counter_ns() - seg_t0,
                    count=stop - start,
                )
        start = stop
        if t_next >= t_end:
            break
        with zone("service.sync"):
            cluster.sync(t_next)
        syncs += 1
        if profiler is not None:
            profiler.tick("service.resyncs")
        if bank is not None:
            bank.mark("resync", t_next, f"gen{cluster.generation}")

    if ctx.check is not None:
        flag_violations(
            found, check_label, runs=1, events_checked=checked
        )
    if metrics is not None:
        metrics.histogram("service.latency").observe_many(latencies)
        metrics.histogram("service.clock_error").observe_many(err_abs)
    wall_s = time.perf_counter() - wall_t0

    # ------------------------------------------------------------------
    # Telemetry + metrics
    # ------------------------------------------------------------------
    stats = service.stats
    if metrics is not None:
        metrics.counter("service.queries").inc(stats.queries)
        metrics.counter("service.stale_reads").inc(stats.stale_served)
        metrics.counter("service.cache.hits").inc(stats.epoch_hits)
        metrics.counter("service.cache.misses").inc(stats.epoch_misses)
        metrics.counter("service.resyncs").inc(syncs)
    if series is not None:
        series.sample(bank)

    def quantiles(a: np.ndarray, qs: list[float]) -> list[float]:
        # One partition of the array serves every requested quantile.
        return np.quantile(a, qs).tolist() if a.size else [0.0] * len(qs)

    latency_p50, latency_p99, latency_p999 = quantiles(
        latencies, [0.5, 0.99, 0.999]
    )
    error_p50, error_p99 = quantiles(err_abs, [0.5, 0.99])
    return ServicePolicyResult(
        policy=policy.label(),
        workload=workload.label(),
        slo=config.slo,
        num_ranks=config.num_ranks,
        duration=workload.duration,
        queries=int(times.size),
        syncs=syncs,
        stale_reads=stats.stale_served,
        stale_rate=stats.stale_rate(),
        cache_hits=stats.epoch_hits,
        cache_misses=stats.epoch_misses,
        cache_hit_ratio=stats.cache_hit_ratio(),
        latency_p50=latency_p50,
        latency_p99=latency_p99,
        latency_p999=latency_p999,
        latency_mean=_mean(latencies),
        clock_error_p50=error_p50,
        clock_error_p99=error_p99,
        clock_error_max=float(err_abs.max()) if err_abs.size else 0.0,
        slo_met=bool(err_abs.size and error_p99 <= config.slo),
        sim_qps=times.size / workload.duration,
        wall_s=wall_s,
    )
