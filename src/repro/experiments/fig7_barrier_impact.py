"""Fig. 7: measured MPI_Allreduce latency depends on the barrier algorithm.

For each message size (4/8/16 B) and each MPI_Barrier algorithm (bruck,
recursive doubling, tree — the paper omits double ring because its impact
is even larger), three benchmark suites measure MPI_Allreduce with their
barrier-based schemes.  Expected shape: the reported latency varies
substantially with the barrier algorithm, and the ``tree`` barrier yields
the smallest latency in all cells — its exit imbalance is the smallest, so
the least imbalance leaks into the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import Table, format_table
from repro.bench.runner import run_latency_benchmark
from repro.cluster.machines import JUPITER
from repro.experiments.common import (
    MACHINE_TIME_SOURCES,
    Scale,
    resolve_scale,
)
from repro.sync.hierarchical import h2hca

BARRIERS = ("bruck", "recursive_doubling", "tree")
MSIZES = (4, 8, 16)
SUITES = ("imb", "osu", "reprompi_barrier")


@dataclass
class Fig7Result:
    nprocs: int
    #: (suite, msize, barrier) -> latency seconds
    cells: dict[tuple[str, int, str], float] = field(default_factory=dict)

    def best_barrier(self, suite: str, msize: int) -> str:
        candidates = {
            b: self.cells[(suite, msize, b)] for b in BARRIERS
        }
        return min(candidates, key=candidates.get)


def run(scale: str | Scale = "quick", seed: int = 0) -> Fig7Result:
    sc = resolve_scale(scale)
    # The barrier effects need node-concentrated ranks (the paper runs
    # 32x16): dissemination barriers then flood each node's NIC while the
    # binomial tree keeps most traffic intra-node.
    machine = JUPITER.machine(max(4, sc.num_nodes // 4), 16)
    nreps = 30 if sc.nmpiruns <= 3 else 100
    result = Fig7Result(nprocs=machine.num_ranks)
    sync_alg = h2hca(nfitpoints=sc.nfitpoints,
                     fitpoint_spacing=sc.fitpoint_spacing)
    for barrier in BARRIERS:
        measurements = run_latency_benchmark(
            machine=machine,
            network=JUPITER.network(),
            suites=list(SUITES),
            msizes=list(MSIZES),
            sync_algorithm=sync_alg,
            barrier_algorithm=barrier,
            nreps=nreps,
            time_source=MACHINE_TIME_SOURCES["jupiter"],
            seed=seed,
        )
        for m in measurements:
            result.cells[(m.suite, m.msize, barrier)] = m.report.latency
    return result


def format_result(result: Fig7Result) -> str:
    table = Table(
        title=(
            f"Fig. 7: MPI_Allreduce latency [us] by suite x barrier "
            f"algorithm ({result.nprocs} processes, Jupiter)"
        ),
        columns=["msize [B]", "suite"] + [f"{b}" for b in BARRIERS],
    )
    for msize in MSIZES:
        for suite in SUITES:
            table.add_row(
                msize,
                suite,
                *(
                    f"{result.cells[(suite, msize, b)] * 1e6:.2f}"
                    for b in BARRIERS
                ),
            )
    lines = [format_table(table)]
    wins = sum(
        result.best_barrier(s, m) == "tree"
        for s in SUITES
        for m in MSIZES
    )
    lines.append(
        f"'tree' gives the smallest latency in {wins}/{len(SUITES) * len(MSIZES)} "
        "cells (paper: all cells)"
    )
    return "\n".join(lines)
