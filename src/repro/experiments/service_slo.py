"""``service_slo``: resync-policy sweep for the clock service.

Not a figure of the paper — the serving-side consequence of its Section
III-C2 observation that a fitted linear clock model is only trustworthy
for a bounded window.  A :class:`~repro.service.core.ClockService`
answers global-clock queries (``now`` / ``translate`` / ``compare``)
against the latest synced models at production traffic; this target
sweeps *when to resync* against a clock-error SLO:

* ``periodic[T]`` — the paper's fixed resync schedule, at several
  periods bracketing the model-validity window,
* ``errorbound`` — resync when the predicted worst-case error bound
  reaches a margin of the SLO (drift-adaptive scheduling).

Each policy serves the same deterministic query stream (open-loop
Poisson clients; the error-bound policy is additionally run against a
closed-loop client population).  The table reports throughput, batched
tail latencies (exact p50/p99/p999 over every served query),
ground-truth clock-error quantiles, stale-read rate, epoch-cache hit
ratio, and an SLO verdict per policy.

Run::

    python -m repro.experiments service_slo --scale quick --jobs 2

Policies are independent runs, fanned out over ``--jobs`` workers with
results bit-identical to serial execution.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs.timeseries import get_default_timeseries
from repro.parallel import JobSpec, job_seeds, run_jobs, seed_int
from repro.service import (
    ErrorBoundResyncPolicy,
    PeriodicResyncPolicy,
    ResyncPolicy,
    ServiceConfig,
    ServicePolicyResult,
    WorkloadSpec,
    run_service,
)

#: Default clock-error SLO (seconds) the sweep is judged against.
DEFAULT_SLO = 25e-6

#: Sweep shape per scale: (num_ranks, periodic periods s, open-loop
#: workload, closed-loop workload for the error-bound policy).
_SCALE = {
    "quick": (
        8,
        (2.0, 8.0, 20.0),
        WorkloadSpec(mode="open", duration=50.0, rate=6000.0),
        WorkloadSpec(
            mode="closed", duration=50.0, clients=40_000, think_time=5.0
        ),
    ),
    "default": (
        16,
        (2.0, 5.0, 10.0, 20.0, 40.0),
        WorkloadSpec(mode="open", duration=120.0, rate=20_000.0),
        WorkloadSpec(
            mode="closed", duration=120.0, clients=200_000, think_time=5.0
        ),
    ),
}


def _policy_job(
    policy: ResyncPolicy,
    workload: WorkloadSpec,
    config: ServiceConfig,
    seed: int,
    scope: str,
) -> ServicePolicyResult:
    """One sweep entry (module-level so job specs stay picklable).

    Telemetry of each entry lands under its own time-series scope, so
    the merged health report keeps the policies' ``service.stale_rate``
    and ``clock.error`` series apart.
    """
    bank = get_default_timeseries()
    ctx = bank.scoped(scope) if bank is not None else nullcontext()
    with ctx:
        return run_service(policy, workload, config, seed=seed)


def run(
    scale: str = "quick",
    seed: int = 0,
    jobs: int | None = 1,
    slo: float = DEFAULT_SLO,
) -> list[ServicePolicyResult]:
    """Sweep resync policies against the error SLO; one run per policy."""
    num_ranks, periods, open_wl, closed_wl = _SCALE[scale]
    config = ServiceConfig(num_ranks=num_ranks, slo=slo)
    entries: list[tuple[ResyncPolicy, WorkloadSpec]] = [
        (PeriodicResyncPolicy(period), open_wl) for period in periods
    ]
    errorbound = ErrorBoundResyncPolicy(slo=slo)
    entries.append((errorbound, open_wl))
    entries.append((errorbound, closed_wl))

    seeds = job_seeds(seed, len(entries))
    specs = [
        JobSpec(
            _policy_job,
            args=(
                policy,
                workload,
                config,
                seed_int(child),
                f"{policy.label()}|{workload.label()}",
            ),
            label=policy.label(),
        )
        for (policy, workload), child in zip(entries, seeds)
    ]
    return run_jobs(specs, jobs=jobs)


def format_result(results: list[ServicePolicyResult]) -> str:
    """Policy comparison table plus the sweep verdict."""
    first = results[0]
    total_queries = sum(r.queries for r in results)
    total_wall = sum(r.wall_s for r in results)
    lines = [
        f"Clock service SLO sweep — {first.num_ranks} ranks, "
        f"SLO {first.slo * 1e6:g}us, {total_queries} queries total",
        "",
        f"  {'policy':<26} {'workload':<18} {'queries':>8} {'syncs':>5} "
        f"{'lat p50':>9} {'lat p99':>9} {'lat p999':>9} "
        f"{'err p99':>9} {'stale%':>7} {'hit%':>6} {'SLO':>4}",
    ]
    for r in results:
        lines.append(
            f"  {r.policy:<26} {r.workload:<18} {r.queries:>8} "
            f"{r.syncs:>5} "
            f"{r.latency_p50 * 1e3:>7.2f}ms {r.latency_p99 * 1e3:>7.2f}ms "
            f"{r.latency_p999 * 1e3:>7.2f}ms "
            f"{r.clock_error_p99 * 1e6:>7.2f}us "
            f"{r.stale_rate * 100:>6.2f}% "
            f"{r.cache_hit_ratio * 100:>5.1f}% "
            f"{'met' if r.slo_met else 'MISS':>4}"
        )
    lines.append("")
    meeting = [r for r in results if r.slo_met]
    if meeting:
        # Cheapest schedule that still meets the SLO: fewest sync rounds.
        best = min(meeting, key=lambda r: (r.syncs, r.policy))
        lines.append(
            f"  cheapest policy meeting the SLO: {best.policy} "
            f"({best.syncs} syncs, p99 error "
            f"{best.clock_error_p99 * 1e6:.2f}us)"
        )
    else:
        lines.append("  no swept policy met the SLO")
    if total_wall > 0.0:
        lines.append(
            f"  served {total_queries} queries in {total_wall:.2f}s wall "
            f"({total_queries / total_wall:,.0f} queries/s)"
        )
    return "\n".join(lines)


def service_queries_per_sec(
    results: list[ServicePolicyResult],
) -> float:
    """Aggregate serving throughput (host wall time) for benchmarking."""
    total_wall = sum(r.wall_s for r in results)
    if total_wall <= 0.0:
        return 0.0
    return sum(r.queries for r in results) / total_wall
