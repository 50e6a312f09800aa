"""Recovery evaluation: how does a sync scheme ride through a fault?

The harness runs one simulated job through a fault scenario while a
synchronization policy maintains a global clock — either a single
up-front sync (the baseline whose linear model the fault invalidates) or
a :class:`~repro.sync.resync.PeriodicResyncClock` (the paper's
future-work extension).  After the run it samples the *ground-truth*
global-clock error (max spread of the per-rank global clocks, evaluated
through the simulator's oracle clocks) on a regular true-time grid and
aggregates it per phase: **before** the first fault, **during** any
fault window, and **after** the last fault ends.

The headline comparison (:func:`compare_recovery`): after an ``ntp_step``
fault the error stays bounded with periodic resync but jumps and stays
high without it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.errors import ConfigurationError
from repro.faults.schedule import FaultSchedule
from repro.parallel import JobSpec, run_jobs
from repro.obs.events import EventSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesBank, get_default_timeseries
from repro.simmpi.network import NetworkModel
from repro.simmpi.simulation import Simulation
from repro.simtime.base import Clock
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec
from repro.sync.base import ClockSyncAlgorithm
from repro.sync.hierarchical import h2hca
from repro.sync.resync import PeriodicResyncClock

#: Default time source: drifty enough that staleness matters in tens of
#: seconds (mirrors the fast-drift preset of the resync tests).
FAULTY_TIME = CLOCK_GETTIME.with_(skew_walk_sigma=5e-7)


def default_algorithm() -> ClockSyncAlgorithm:
    """Small H2HCA configuration suited to smoke-scale fault runs."""
    return h2hca(nfitpoints=10, fitpoint_spacing=1e-4)


@dataclass(frozen=True)
class PhaseStats:
    """Error statistics of one evaluation phase (before/during/after)."""

    nsamples: int
    max_error: float
    mean_error: float
    p95_error: float

    @classmethod
    def from_errors(cls, errors: list[float]) -> "PhaseStats":
        if not errors:
            return cls(0, float("nan"), float("nan"), float("nan"))
        arr = np.asarray(errors)
        return cls(
            nsamples=len(errors),
            max_error=float(arr.max()),
            mean_error=float(arr.mean()),
            p95_error=float(np.percentile(arr, 95)),
        )


@dataclass
class RecoveryReport:
    """Outcome of one policy (resync or baseline) through one scenario."""

    scenario: str
    algorithm: str
    #: ``None`` for the sync-once baseline.
    resync_age: float | None
    seed: int
    horizon: float
    sample_interval: float
    #: phase name ("before"/"during"/"after") → error statistics.
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    #: (true_time, max global-clock spread) samples, in time order.
    samples: list[tuple[float, float]] = field(default_factory=list)
    resync_rounds: int = 0
    engine_stats: dict[str, int] = field(default_factory=dict)

    def tail_max(self, fraction: float = 0.25) -> float:
        """Max error over the trailing ``fraction`` of the horizon.

        The tail excludes the immediate post-fault transient (the rounds
        before the next resync lands), so it measures the *recovered*
        steady state.
        """
        cutoff = self.horizon * (1.0 - fraction)
        tail = [err for t, err in self.samples if t >= cutoff]
        return max(tail) if tail else float("nan")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "resync_age": self.resync_age,
            "seed": self.seed,
            "horizon": self.horizon,
            "resync_rounds": self.resync_rounds,
            "phases": {
                name: vars(stats) for name, stats in self.phases.items()
            },
        }


def _phase_of(t: float, window: tuple[float, float] | None) -> str:
    if window is None:
        return "before"
    start, end = window
    if t < start:
        return "before"
    if t > end:
        return "after"
    return "during"


def run_recovery(
    scenario: FaultSchedule,
    resync_age: float | None,
    algorithm_factory: Callable[[], ClockSyncAlgorithm] = default_algorithm,
    horizon: float = 60.0,
    sample_interval: float = 1.0,
    ensure_interval: float = 2.0,
    num_nodes: int = 4,
    ranks_per_node: int = 2,
    network: NetworkModel | None = None,
    time_source: TimeSourceSpec | None = None,
    seed: int = 0,
    sink: EventSink | None = None,
    metrics: MetricsRegistry | None = None,
    timeseries: TimeSeriesBank | None = None,
) -> RecoveryReport:
    """Run one policy through ``scenario`` and score its recovery.

    ``resync_age=None`` syncs once at t≈0 and never again (baseline);
    otherwise each rank holds a :class:`PeriodicResyncClock` with that
    ``max_model_age`` and calls ``ensure`` every ``ensure_interval``
    seconds of simulated time until ``horizon``.

    With a telemetry bank attached (explicitly or via the process-wide
    default), everything the run samples — engine NIC backlog, resync
    markers, and the ground-truth per-rank ``clock.error`` series scored
    below — lands under a ``"resync"``/``"baseline"`` scope so the two
    policies of :func:`compare_recovery` stay separable.
    """
    bank = (
        timeseries if timeseries is not None else get_default_timeseries()
    )
    scope = "resync" if resync_age is not None else "baseline"
    with bank.scoped(scope) if bank is not None else nullcontext():
        return _run_recovery_scoped(
            scenario, resync_age, algorithm_factory, horizon,
            sample_interval, ensure_interval, num_nodes, ranks_per_node,
            network, time_source, seed, sink, metrics, bank,
        )


def _run_recovery_scoped(
    scenario, resync_age, algorithm_factory, horizon, sample_interval,
    ensure_interval, num_nodes, ranks_per_node, network, time_source,
    seed, sink, metrics, bank,
) -> RecoveryReport:
    machine = Machine(
        num_nodes=num_nodes,
        sockets_per_node=1,
        cores_per_socket=ranks_per_node,
        ranks_per_node=ranks_per_node,
        name="faultbox",
    )
    if scenario.of_kind("churn"):
        raise ConfigurationError(
            f"scenario {scenario.name!r} holds a churn entry, but churn "
            f"acts between campaign rounds and a recovery run is a "
            f"single run (see repro.scenarios.runner)"
        )
    # Fail fast on scenarios that cannot act on this job — validated
    # here against the *evaluation* horizon (the Simulation re-validates
    # against its much larger hard time limit).
    scenario.validate(
        num_ranks=machine.num_ranks,
        num_nodes=num_nodes,
        horizon=horizon,
    )
    sim = Simulation(
        machine=machine,
        network=network or infiniband_qdr(),
        time_source=time_source or FAULTY_TIME,
        seed=seed,
        faults=scenario,
        sink=sink,
        metrics=metrics,
        timeseries=bank,
    )
    #: rank → [(true time acquired, global clock)], newest last.
    records: dict[int, list[tuple[float, Clock]]] = {}
    resyncs: dict[int, PeriodicResyncClock] = {}
    shared_algorithm = algorithm_factory()  # baseline: one SPMD instance

    def main(ctx, comm):
        recs = records.setdefault(ctx.rank, [])
        if resync_age is None:
            clock = yield from shared_algorithm.sync_clocks(
                comm, ctx.hardware_clock
            )
            recs.append((ctx.now, clock))
            yield from ctx.wait_until_true(horizon)
            return 0
        resync = resyncs.setdefault(
            ctx.rank,
            PeriodicResyncClock(
                algorithm_factory(), max_model_age=resync_age
            ),
        )
        # ensure() is collective, so every rank must make the same
        # number of calls.  A rank-local `ctx.now >= horizon` exit test
        # deadlocks under faults: a straggler's true time is dilated, so
        # it crosses the horizon in fewer iterations than its peers and
        # leaves them blocked inside the next round's bcast.  The trip
        # count is therefore fixed up front (identical to the time-based
        # exit whenever per-round overhead is small vs the interval).
        nsteps = int(np.ceil(horizon / ensure_interval))
        for step in range(nsteps + 1):
            clock = yield from resync.ensure(comm, ctx)
            if not recs or recs[-1][1] is not clock:
                recs.append((ctx.now, clock))
            if step < nsteps:
                yield from ctx.elapse(ensure_interval)
        return resync.resync_count

    result = sim.run(main)
    label = (
        resyncs[0].label() if resync_age is not None
        else shared_algorithm.label()
    )
    report = RecoveryReport(
        scenario=scenario.name,
        algorithm=label,
        resync_age=resync_age,
        seed=seed,
        horizon=horizon,
        sample_interval=sample_interval,
        resync_rounds=max(result.values) if resync_age is not None else 1,
        engine_stats=result.engine_stats,
    )

    # ------------------------------------------------------------------
    # Ground-truth scoring on a regular true-time grid.
    # ------------------------------------------------------------------
    ranks = sorted(records)
    t_ready = max(recs[0][0] for recs in records.values())
    first = int(np.ceil(t_ready / sample_interval)) + 1
    window = scenario.window()
    errors: dict[str, list[float]] = {"before": [], "during": [], "after": []}
    grid = [
        i * sample_interval
        for i in range(first, int(horizon / sample_interval) + 1)
    ]
    ts = np.asarray(grid, dtype=np.float64)
    # Per rank, each acquired clock covers a contiguous slice of the
    # grid (records are in acquisition order), so the whole trajectory
    # resolves in one read_many per (rank, clock) epoch instead of a
    # rank x grid scalar loop.  read_many is pinned bit-identical to
    # per-element read, and the emission order below is unchanged.
    readings = np.empty((len(ranks), len(grid)), dtype=np.float64)
    for row, rank in enumerate(ranks):
        recs = records[rank]
        acquired = np.asarray([a for a, _ in recs], dtype=np.float64)
        active = np.searchsorted(acquired, ts, side="right") - 1
        assert len(grid) == 0 or int(active.min()) >= 0
        for k, (_, clock) in enumerate(recs):
            mask = active == k
            if mask.any():
                readings[row, mask] = clock.read_many(ts[mask])
    for i, t in enumerate(grid):
        col = readings[:, i]
        err = float(col.max()) - float(col.min())
        report.samples.append((t, err))
        errors[_phase_of(t, window)].append(err)
        if bank is not None:
            # Per-rank error against rank 0's global clock (rank 0 vs
            # itself is identically 0, so it is skipped) plus the
            # job-level spread — the series the health detectors scan.
            ref = float(col[0])
            for rank, reading in zip(ranks[1:], col[1:]):
                bank.sample("clock.error", t, float(reading) - ref, rank=rank)
            bank.sample("clock.error.spread", t, err)
    report.phases = {
        name: PhaseStats.from_errors(vals) for name, vals in errors.items()
    }
    return report


def compare_recovery(
    scenario: FaultSchedule,
    resync_age: float = 8.0,
    jobs: int | None = 1,
    **kwargs,
) -> dict[str, RecoveryReport]:
    """Run the same scenario + seed with and without periodic resync.

    The two policy runs are independent simulations; ``jobs>1`` executes
    them on separate worker processes (results are identical to serial —
    each run's randomness is fully determined by its own arguments).
    Explicit ``sink``/``metrics``/``timeseries`` keyword arguments force
    the serial path: they are parent-process objects that workers cannot
    mutate.
    """
    if any(
        kwargs.get(key) is not None
        for key in ("sink", "metrics", "timeseries")
    ):
        jobs = 1
    specs = [
        JobSpec(run_recovery, args=(scenario,),
                kwargs={"resync_age": None, **kwargs}, label="baseline"),
        JobSpec(run_recovery, args=(scenario,),
                kwargs={"resync_age": resync_age, **kwargs}, label="resync"),
    ]
    baseline, resync = run_jobs(specs, jobs=jobs)
    return {"baseline": baseline, "resync": resync}
