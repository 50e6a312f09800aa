"""Fig. 9: OSU (barrier-based) vs ReproMPI Round-Time on Titan.

MPI_Allreduce latency across message sizes 4 B … 1024 B, measured by OSU
Micro-Benchmarks (barrier each repetition, mean) and by ReproMPI with the
Round-Time scheme (global-clock start lines, median).  Expected shape:
OSU's reported latencies are inflated by barrier-exit imbalance at small
message sizes; the curves converge as the payload (and hence the true
collective latency) grows relative to the barrier's imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import Table, format_table
from repro.bench.runner import run_latency_benchmark
from repro.cluster.machines import TITAN
from repro.experiments.common import (
    MACHINE_TIME_SOURCES,
    Scale,
    resolve_scale,
)
from repro.sync.hierarchical import h2hca

MSIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class Fig9Result:
    nprocs: int
    #: suite -> msize -> list of latencies (one per mpirun), seconds
    series: dict[str, dict[int, list[float]]] = field(default_factory=dict)

    def mean(self, suite: str, msize: int) -> float:
        return float(np.mean(self.series[suite][msize]))

    def inflation(self, msize: int) -> float:
        """OSU latency / Round-Time latency at one message size."""
        return self.mean("osu", msize) / self.mean("reprompi", msize)


def run(
    scale: str | Scale = "quick",
    seed: int = 0,
    nmpiruns: int | None = None,
    msizes: tuple[int, ...] = MSIZES,
) -> Fig9Result:
    sc = resolve_scale(scale)
    # The barrier-inflation effect needs enough processes for the barrier's
    # exit imbalance to rival the allreduce latency, and several ranks per
    # node so NIC serialization matters (the paper runs 64 nodes x 16);
    # keep at least 16 nodes x 8 ranks even at quick scale.
    machine = TITAN.machine(max(16, sc.num_nodes), 8)
    nmpiruns = nmpiruns or min(3, sc.nmpiruns)
    nreps = 30 if sc.nmpiruns <= 3 else 100
    result = Fig9Result(nprocs=machine.num_ranks)
    sync_alg = h2hca(nfitpoints=sc.nfitpoints,
                     fitpoint_spacing=sc.fitpoint_spacing)
    for run_idx in range(nmpiruns):
        measurements = run_latency_benchmark(
            machine=machine,
            network=TITAN.network(),
            suites=["osu", "reprompi"],
            msizes=list(msizes),
            sync_algorithm=sync_alg,
            # OSU inherits the MPI library's default barrier; cray-mpich's
            # flat (linear) barrier is the worst case the paper observes.
            barrier_algorithm="linear",
            nreps=nreps,
            max_time_slice=0.25,
            time_source=MACHINE_TIME_SOURCES["titan"],
            seed=seed * 1000 + run_idx,
            fabric=TITAN.fabric(machine.num_nodes),
        )
        for m in measurements:
            result.series.setdefault(m.suite, {}).setdefault(
                m.msize, []
            ).append(m.report.latency)
    return result


def format_result(result: Fig9Result) -> str:
    table = Table(
        title=(
            f"Fig. 9: MPI_Allreduce latency [us], OSU vs ReproMPI "
            f"Round-Time ({result.nprocs} processes, Titan)"
        ),
        columns=["msize [B]", "OSU", "ReproMPI (Round-Time)", "OSU/RT"],
    )
    msizes = sorted(result.series["osu"])
    for msize in msizes:
        table.add_row(
            msize,
            f"{result.mean('osu', msize) * 1e6:.2f}",
            f"{result.mean('reprompi', msize) * 1e6:.2f}",
            f"{result.inflation(msize):.2f}x",
        )
    lines = [format_table(table)]
    lines.append(
        "paper shape: OSU inflated at small msizes by barrier effects; "
        "gap narrows as msize grows"
    )
    return "\n".join(lines)
