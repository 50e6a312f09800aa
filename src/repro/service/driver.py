"""Service run driver: cluster + sync oracle + workload → measurements.

One :func:`run_service` call is one policy's run: a simulated cluster of
drifting hardware clocks, a sync oracle that fits per-rank linear models
against the reference rank (the paper's offset-measurement + regression
pipeline, evaluated through the simulator's clocks with deterministic
measurement noise), a :class:`~repro.service.core.ClockService` serving
a generated query stream, and a resync policy deciding when the models
are refreshed.

Everything is vectorized, at the widest scope each quantity allows.
**Per stream**, before the epoch loop: request latencies (the batching
cost model over the full arrival sequence) and every clock reading —
the queried readings, ``compare``'s second readings and the three kinds
of ground truth.  Sync fits models and never adjusts a clock, so a
:class:`~repro.simtime.hardware.HardwareClock` reading is a function of
true time alone, and one batched read sliced per epoch is bit-identical
to per-epoch reads.  **Per epoch** (one sync generation): the model
arithmetic, staleness bounds and error scoring of the queries landing in
it, through one batched evaluation per query shape.  Reported latency
and clock-error quantiles are exact, computed from the run's own arrays.
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
:class:`~repro.errors.InvariantViolation` immediately; in report mode it
is appended to the context's report directory and serving carries on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
    BatchingModel,
    WorkloadSpec,
    generate,
)
from repro.simtime.hardware import HardwareClock
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec, make_node_clocks
from repro.sync.linear_model import LinearDriftModel

#: Default time source: drifty enough that a 20 s old model matters at a
#: tens-of-microseconds SLO (between the package default and the resync
#: tests' TWITCHY preset).
SERVICE_TIME = CLOCK_GETTIME.with_(skew_walk_sigma=3e-7)


@dataclass(frozen=True)
class ServiceConfig:
    """Cluster + sync-oracle + serving parameters of one run."""

    num_ranks: int = 8
    #: Target clock-error SLO the service reports staleness against.
    slo: float = 25e-6
    time_source: TimeSourceSpec = SERVICE_TIME
    #: Span of the offset-measurement window each fit uses, seconds.
    fit_window: float = 1.0
    #: Offset measurements per fit.
    fit_points: int = 24
    #: Std-dev of per-measurement offset noise, seconds.
    noise: float = 0.3e-6
    #: Request batching cost model.
    batching: BatchingModel = field(default_factory=BatchingModel)
    #: Telemetry bucket width, seconds.
    sample_interval: float = 1.0
    #: Floor on the spacing between sync rounds (guards degenerate
    #: policies from resyncing every batch).
    min_resync_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.num_ranks < 2:
            raise ConfigurationError("num_ranks must be >= 2")
        # Chained comparisons: NaN fails every one, inf the upper bound.
        if not 0.0 < self.slo < math.inf:
            raise ConfigurationError("slo must be finite and > 0")
        if not 0.0 < self.fit_window < math.inf or self.fit_points < 2:
            raise ConfigurationError(
                "fit_window must be finite and > 0, fit_points >= 2"
            )
        if not 0.0 <= self.noise < math.inf:
            raise ConfigurationError("noise must be finite and >= 0")
        if not (0.0 < self.sample_interval < math.inf
                and 0.0 < self.min_resync_interval < math.inf):
            raise ConfigurationError(
                "sample_interval/min_resync_interval must be finite and > 0"
            )


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
        self.config = config
        self.clocks: list[HardwareClock] = make_node_clocks(
            config.num_ranks,
            config.time_source,
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
        cfg = self.config
        ts = np.linspace(t - cfg.fit_window, t, cfg.fit_points)
        ref_readings = self.clocks[self.ref_rank].read_many(ts)
        models: list[LinearDriftModel] = []
        residual = 0.0
        for rank, clock in enumerate(self.clocks):
            if rank == self.ref_rank:
                models.append(LinearDriftModel.ZERO)
                continue
            local = clock.read_many(ts)
            noise = self._noise_rng.normal(0.0, cfg.noise, cfg.fit_points)
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
) -> list[Violation]:
    """Sanitizer pass: the first answers of each query shape equal the
    scalar model arithmetic, and served global time is monotone per
    rank."""
    found: list[Violation] = []
    model_for = service.epoch().model_for
    for op in (OP_NOW, OP_TRANSLATE, OP_COMPARE):
        for i in np.flatnonzero(ops == op)[:CHECKED_PER_SHAPE]:
            global_a = model_for(int(ranks[i])).apply(float(readings[i]))
            if op == OP_NOW:
                expect = global_a
            elif op == OP_TRANSLATE:
                expect = model_for(int(ranks2[i])).apply_inverse(global_a)
            else:
                expect = global_a - model_for(int(ranks2[i])).apply(
                    float(readings_b[i])
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
    return found


def run_service(
    policy: ResyncPolicy,
    workload: WorkloadSpec,
    config: ServiceConfig | None = None,
    seed: int = 0,
) -> ServicePolicyResult:
    """Run one policy against one workload; score errors and latencies."""
    config = config or ServiceConfig()
    root = np.random.SeedSequence(seed)
    cluster_seed, workload_seed = root.spawn(2)
    cluster = SimulatedCluster(config, cluster_seed)
    stream = generate(
        workload, config.num_ranks, workload_seed, config.batching
    )
    # Serving starts after the first fit window has history to fit on.
    t_start = config.fit_window
    times = stream.times + t_start
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
        done, _sizes = config.batching.respond(times)
    latencies = done - times

    # Sync fits models, it never adjusts a clock: a reading is a function
    # of true time alone, so readings and ground truth are taken once
    # over the whole stream and sliced per epoch below.
    reads_t0 = time.perf_counter_ns()
    ops, ranks, ranks2 = stream.ops, stream.ranks, stream.ranks2
    # Stream positions of each query shape (ascending, so an epoch's
    # share of one is a slice of it).
    now_q = np.flatnonzero(ops == OP_NOW)
    translate_q = np.flatnonzero(ops == OP_TRANSLATE)
    compare_q = np.flatnonzero(ops == OP_COMPARE)
    clocks = cluster.clocks
    readings = _reads(clocks, ranks, times)
    readings_b = np.empty(times.size, dtype=np.float64)
    readings_b[compare_q] = _reads(
        clocks, ranks2[compare_q], times[compare_q]
    )
    # Both events of a compare happen at the same true instant, so its
    # ground-truth delta is identically zero.
    truth = np.zeros(times.size, dtype=np.float64)
    truth[now_q] = clocks[cluster.ref_rank].read_raw_many(times[now_q])
    truth[translate_q] = _reads(
        clocks, ranks2[translate_q], times[translate_q], raw=True
    )
    if profiler is not None:
        profiler.add(
            "service.serve", time.perf_counter_ns() - reads_t0, count=0
        )

    values = np.empty(times.size, dtype=np.float64)
    err_abs = np.empty(times.size, dtype=np.float64)
    bounds = np.empty(times.size, dtype=np.float64)
    stale = np.empty(times.size, dtype=bool)

    def in_epoch(queries: np.ndarray, seg: slice) -> np.ndarray:
        lo, hi = np.searchsorted(queries, (seg.start, seg.stop))
        return queries[lo:hi]

    start = 0
    syncs = 1
    while start < times.size:
        epoch = service.epoch()
        t_next = max(
            policy.next_resync(epoch),
            epoch.synced_at + config.min_resync_interval,
        )
        stop = int(np.searchsorted(times, min(t_next, t_end), side="left"))
        seg = slice(start, stop)
        if stop > start:
            seg_t0 = time.perf_counter_ns()
            q = in_epoch(now_q, seg)
            if q.size:
                values[q], bounds[q], stale[q] = service.now_batch(
                    ranks[q], readings[q], times[q]
                )

            q = in_epoch(translate_q, seg)
            if q.size:
                values[q], bounds[q], stale[q] = service.translate_batch(
                    readings[q], ranks[q], ranks2[q], times[q]
                )

            q = in_epoch(compare_q, seg)
            if q.size:
                values[q], bounds[q], stale[q] = service.compare_batch(
                    ranks[q], readings[q], ranks2[q], readings_b[q],
                    times[q],
                )

            if ctx.check is not None:
                flag_violations(
                    _check_epoch(
                        service, ops[seg], ranks[seg], ranks2[seg],
                        readings[seg], readings_b[seg], values[seg],
                    ),
                    label=f"service[{policy.label()}]",
                )

            err_abs[seg] = np.abs(values[seg] - truth[seg])
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
    if bank is not None and times.size:
        buckets = np.floor(times / config.sample_interval).astype(np.int64)
        base = int(buckets.min())
        counts = np.bincount(buckets - base)
        stale_counts = np.bincount(
            buckets - base, weights=stale.astype(np.float64)
        )
        for b in range(counts.size):
            if counts[b] == 0:
                continue
            t_b = (base + b + 1) * config.sample_interval
            in_bucket = buckets - base == b
            bank.sample(
                "service.stale_rate", t_b,
                float(stale_counts[b] / counts[b]),
            )
            bank.sample(
                "clock.error", t_b, float(err_abs[in_bucket].max())
            )
            bank.sample(
                "service.error_bound", t_b,
                float(bounds[in_bucket].max()),
            )

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
        latency_mean=(
            math.fsum(latencies) / latencies.size if latencies.size else 0.0
        ),
        clock_error_p50=error_p50,
        clock_error_p99=error_p99,
        clock_error_max=float(err_abs.max()) if err_abs.size else 0.0,
        slo_met=bool(err_abs.size and error_p99 <= config.slo),
        sim_qps=times.size / workload.duration,
        wall_s=wall_s,
    )
