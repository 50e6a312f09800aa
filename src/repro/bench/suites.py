"""Benchmark-suite emulations: how suites turn samples into one number.

The paper's Fig. 7 caption spells out the data-processing difference:
"the mean with Intel MPI Benchmarks and OSU Micro-Benchmarks and the
median with ReproMPI".  The suites also differ in the synchronization
scheme (barrier for OSU/IMB; Round-Time or barrier for ReproMPI) and in
the cross-rank aggregation:

* OSU and IMB (:func:`barrier_report`) report the average across ranks
  of each rank's mean latency, with IMB's t_min / t_max across ranks.
* ReproMPI (:func:`reprompi_report`), with a global clock, reconstructs
  per-repetition *collective* durations (max across ranks of the
  common-start-to-exit time) and reports their median.

These are the suites Figs. 7 and 9 run.  The window scheme
(:class:`~repro.bench.schemes.WindowScheme`) has no suite report here:
no figure uses SKaMPI's min-of-windows statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.bench.estimate import Operation
from repro.bench.schemes import BarrierScheme, RoundTimeScheme, SchemeResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


@dataclass
class SuiteReport:
    """What a benchmark suite prints for one (operation, msize) cell."""

    suite: str
    latency: float  # the headline number, seconds
    t_min: float
    t_max: float
    nvalid: int
    invalid: int


def _gather_summary(
    comm: "Communicator", local: SchemeResult
) -> Generator:
    """Collect per-rank means at the root (what OSU/IMB's reduction does)."""
    packed = (local.mean(), local.nvalid, local.invalid)
    gathered = yield from comm.gather(packed, root=0, size=24)
    return gathered


def barrier_report(
    comm: "Communicator",
    operation: Operation,
    suite: str,
    nreps: int = 100,
    barrier_algorithm: str = "tree",
) -> Generator:
    """OSU Micro-Benchmarks or Intel MPI Benchmarks (``suite`` names
    which): barrier scheme, mean across ranks of per-rank means."""
    scheme = BarrierScheme(barrier_algorithm=barrier_algorithm, nreps=nreps)
    local = yield from scheme.run(comm, operation)
    gathered = yield from _gather_summary(comm, local)
    if comm.rank != 0:
        return None
    means = np.array([g[0] for g in gathered])
    return SuiteReport(
        suite=suite,
        latency=float(means.mean()),
        t_min=float(means.min()),
        t_max=float(means.max()),
        nvalid=int(min(g[1] for g in gathered)),
        invalid=int(sum(g[2] for g in gathered)),
    )


def reprompi_report(
    comm: "Communicator",
    operation: Operation,
    global_clock_provider,
    max_time_slice: float = 1.0,
    max_nrep: int = 200,
    scheme: str = "round_time",
    barrier_algorithm: str = "tree",
    nreps: int = 100,
) -> Generator:
    """ReproMPI: Round-Time (default) or barrier scheme, median latency.

    With the Round-Time scheme the per-repetition duration is measured
    from the *common* global start time, so the collective latency per
    repetition is the max across ranks; the root gathers per-rank
    durations and reduces them rep-wise before taking the median.
    """
    if scheme == "round_time":
        rt = RoundTimeScheme(
            global_clock_provider,
            max_time_slice=max_time_slice,
            max_nrep=max_nrep,
        )
        local = yield from rt.run(comm, operation)
        gathered = yield from comm.gather(
            local.durations, root=0, size=8 * max(1, local.nvalid)
        )
        if comm.rank != 0:
            return None
        nvalid = min(len(g) for g in gathered)
        per_rep = np.array([g[:nvalid] for g in gathered]).max(axis=0)
        return SuiteReport(
            suite="ReproMPI",
            latency=float(np.median(per_rep)) if nvalid else float("nan"),
            t_min=float(per_rep.min()) if nvalid else float("nan"),
            t_max=float(per_rep.max()) if nvalid else float("nan"),
            nvalid=nvalid,
            invalid=local.invalid,
        )
    if scheme == "barrier":
        b = BarrierScheme(barrier_algorithm=barrier_algorithm, nreps=nreps)
        local = yield from b.run(comm, operation)
        gathered = yield from comm.gather(
            local.durations, root=0, size=8 * max(1, local.nvalid)
        )
        if comm.rank != 0:
            return None
        per_rep = np.array(gathered).max(axis=0)
        return SuiteReport(
            suite="ReproMPI",
            latency=float(np.median(per_rep)),
            t_min=float(per_rep.min()),
            t_max=float(per_rep.max()),
            nvalid=len(per_rep),
            invalid=0,
        )
    raise ValueError(f"unknown ReproMPI scheme {scheme!r}")
