"""End-to-end benchmark orchestration.

``run_latency_benchmark`` is the composition the experiment modules use:
build a simulation, synchronize clocks once with a configurable algorithm,
then measure one collective operation at several message sizes with a
chosen suite emulation — returning one :class:`LatencyMeasurement` per
(suite, message size) cell, i.e. one bar of Fig. 7 / one point of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.suites import SuiteReport, barrier_report, reprompi_report
from repro.cluster.topology import Machine
from repro.simmpi.network import NetworkModel
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec
from repro.sync.base import ClockSyncAlgorithm


@dataclass
class LatencyMeasurement:
    """One measured cell: suite × message size of MPI_Allreduce."""

    suite: str
    msize: int
    report: SuiteReport


def make_allreduce_op(msize: int) -> Callable:
    """An MPI_Allreduce operation closure for the measurement schemes."""

    def op(comm):
        yield from comm.allreduce(
            1.0, size=msize, algorithm="recursive_doubling"
        )

    return op


def run_latency_benchmark(
    machine: Machine,
    network: NetworkModel,
    suites: list[str],
    msizes: list[int],
    sync_algorithm: ClockSyncAlgorithm | None = None,
    barrier_algorithm: str = "tree",
    nreps: int = 100,
    max_time_slice: float = 0.5,
    time_source: TimeSourceSpec = CLOCK_GETTIME,
    seed: int = 0,
    fabric=None,
    stats_out: dict | None = None,
) -> list[LatencyMeasurement]:
    """Run the full pipeline; returns one measurement per suite × msize.

    A single simulated job first synchronizes clocks (when a global-clock
    suite is requested), then measures every (suite, msize) combination in
    sequence — mirroring how a real benchmarking campaign reuses one
    ``mpirun``.

    Observability hooks come from the run context (see
    :func:`repro.context.run_context`).  When ``stats_out`` is given, it
    is filled with a run summary: the engine's counter snapshot under
    ``"engine"`` and, if the sync algorithm tracks rounds, its per-level
    RTT/residual summary under ``"sync"``.
    """
    needs_clock = any(s.startswith("reprompi") for s in suites)

    def main(ctx, comm):
        global_clock = None
        if needs_clock and sync_algorithm is not None:
            global_clock = yield from sync_algorithm.sync_clocks(
                comm, ctx.hardware_clock
            )
        provider = (lambda _comm: global_clock) if global_clock else None
        out = []
        for msize in msizes:
            op = make_allreduce_op(msize)
            for suite in suites:
                if suite in ("osu", "imb"):
                    rep = yield from barrier_report(
                        comm, op, suite.upper(), nreps=nreps,
                        barrier_algorithm=barrier_algorithm,
                    )
                elif suite == "reprompi":
                    if provider is None:
                        raise ValueError(
                            "reprompi suite needs a sync_algorithm"
                        )
                    rep = yield from reprompi_report(
                        comm, op, provider,
                        max_time_slice=max_time_slice, max_nrep=nreps,
                    )
                elif suite == "reprompi_barrier":
                    if provider is None:
                        raise ValueError(
                            "reprompi_barrier suite needs a sync_algorithm"
                        )
                    rep = yield from reprompi_report(
                        comm, op, provider, scheme="barrier",
                        barrier_algorithm=barrier_algorithm, nreps=nreps,
                    )
                else:
                    raise ValueError(f"unknown suite {suite!r}")
                if comm.rank == 0:
                    out.append((suite, msize, rep))
        return out

    sim = Simulation(
        machine=machine,
        network=network,
        time_source=time_source,
        seed=seed,
        fabric=fabric,
    )
    result = sim.run(main)
    if stats_out is not None:
        stats_out["engine"] = result.engine_stats
        if sync_algorithm is not None:
            stats_out["sync"] = sync_algorithm.sync_stats_summary()
    return [
        LatencyMeasurement(suite=suite, msize=msize, report=rep)
        for suite, msize, rep in result.values[0]
    ]
