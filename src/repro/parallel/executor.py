"""Process-pool execution of independent simulated jobs.

Every figure campaign is ``nmpiruns × labels`` *independent* simulated
mpiruns; this module fans them out over worker processes while keeping
the results bit-identical to serial execution:

* **Seeding** — callers derive one ``SeedSequence`` child per job from a
  single root (:mod:`repro.parallel.seeds`) *before* submission, so a
  job's randomness depends only on its submission index, never on the
  executing worker or completion order.
* **Ordering** — results are collected in submission order
  (``ProcessPoolExecutor.map``), so downstream aggregation sees the same
  sequence the serial loop would have produced.
* **Run context** — worker processes cannot emit into the parent's hooks,
  so every job, under any ``jobs`` value, runs under
  :meth:`~repro.context.RunContext.isolated` (fresh hooks and sanitizer
  report of the same kinds, the sanitizer mode carried along), ships it
  back with the result, and the parent folds it in with
  :meth:`~repro.context.RunContext.merge_from` in submission order.  Some
  aggregates (reservoir histograms, decimating time-series, the capped
  violation list) are not invariant under re-batching, so running
  ``jobs=1`` and ``jobs=N`` through identical merge sequences is what
  makes their outputs byte-identical — the contract
  ``tests/obs/test_report.py`` pins.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.context import RunContext, current_context, run_context


@dataclass(frozen=True)
class JobSpec:
    """One independent unit of work: a picklable callable plus arguments.

    ``fn`` must be addressable by module path (a module-level function),
    and every argument picklable — job specs cross a process boundary
    when ``jobs > 1``.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: Free-form tag for diagnostics (not used by the executor itself).
    label: str = ""


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores.

    "All cores" respects the scheduler affinity mask when the platform
    exposes one (containers often restrict it below ``os.cpu_count()``).
    """
    if jobs is None or jobs <= 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # non-Linux
            return os.cpu_count() or 1
    return jobs


def _execute_job(spec: JobSpec, ctx: RunContext) -> tuple[Any, RunContext]:
    """Run one job under its isolated context (worker- and serial-side)."""
    with run_context(**vars(ctx)):
        return spec.fn(*spec.args, **spec.kwargs), ctx


def run_jobs(specs: Sequence[JobSpec], jobs: int | None = 1) -> list[Any]:
    """Run every job; returns their results in submission order.

    ``jobs=1`` executes in-process; ``jobs>1`` fans out over a
    :class:`ProcessPoolExecutor`.  Both return bit-identical results for
    deterministic job functions because all randomness is fixed by the
    job specs themselves — and identical merged observability, because
    each job runs under an isolated copy of the current run context that
    is folded back in submission order.  The executor publishes
    ``parallel.jobs.completed`` and ``parallel.workers`` through the
    context's metrics registry.
    """
    specs = list(specs)
    ctx = current_context()
    njobs = min(resolve_jobs(jobs), len(specs)) if specs else 1
    # A generator, so the serial path holds one job's hooks at a time.
    isolated = (ctx.isolated() for _ in specs)
    if njobs <= 1:
        outcomes = map(_execute_job, specs, isolated)
    else:
        with ProcessPoolExecutor(max_workers=njobs) as pool:
            outcomes = list(pool.map(_execute_job, specs, isolated))
    results = []
    for result, job in outcomes:
        results.append(result)
        ctx.merge_from(job)
        if ctx.metrics is not None:
            ctx.metrics.counter("parallel.jobs.completed").inc()
    if ctx.metrics is not None:
        ctx.metrics.gauge("parallel.workers").set(njobs)
    return results
