"""CHECK_CLOCK_ACCURACY (paper Algorithm 6) and a ground-truth oracle.

After a synchronization algorithm completes, the reference process measures
the clock offset between its global clock and every client's global clock —
immediately, and again after each configured waiting period.  The maximum
absolute offset across clients is the accuracy number plotted on the y-axes
of Figs. 3–6.

Fig. 6 (16k processes) samples 10 % of the clients to keep the check
affordable; ``sample_fraction`` reproduces that.

:func:`ground_truth_accuracy` is the simulation-level oracle: it evaluates
the returned clock objects at a common true time, with no measurement
noise.  The figures report the *measured* value (faithful to the paper);
scenario cells score both, since a byzantine rank can poison the
measurement but not the oracle.

:func:`run_sync_cell` is the one accuracy mpirun behind the Figs. 3–6
campaigns and the scenario cells: synchronize, check, score into a
:class:`SyncRun`, sanity-check the clocks and sample their health.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Sequence

import numpy as np

from repro.check.clockcheck import check_global_clock
from repro.context import current_context
from repro.parallel.seeds import seed_int
from repro.simmpi.simulation import Simulation
from repro.simtime.base import Clock
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec
from repro.sync.offset import OffsetAlgorithm, SKaMPIOffset
from repro.sync.registry import algorithm_from_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machines import MachineSpec
    from repro.faults.schedule import FaultSchedule
    from repro.simmpi.comm import Communicator

#: Go-signal tag for sequencing the per-client measurements.
CHECK_GO_TAG = 11


def _sample_clients(
    size: int, sample_fraction: float, seed: int
) -> list[int]:
    """Deterministic client sample (identical on every rank)."""
    clients = list(range(1, size))
    if sample_fraction >= 1.0:
        return clients
    rng = np.random.default_rng(seed)
    k = max(1, int(round(sample_fraction * len(clients))))
    picked = rng.choice(len(clients), size=k, replace=False)
    return sorted(clients[i] for i in picked)


def check_clock_accuracy(
    comm: "Communicator",
    global_clock: Clock,
    offset_alg: OffsetAlgorithm,
    wait_times: Sequence[float] = (0.0, 10.0),
    sample_fraction: float = 1.0,
    sample_seed: int = 0,
) -> Generator:
    """Measure each client's global-clock offset at several wait times.

    Collective.  Rank 0 returns ``{wait_time: {client: offset_seconds}}``;
    clients return ``None``.  Offsets are measured with ``offset_alg``
    between the *global* clocks, exactly as Algorithm 6 does, so the
    numbers include the same measurement noise the paper's do.
    """
    rank = comm.rank
    clients = _sample_clients(comm.size, sample_fraction, sample_seed)
    if rank == 0:
        results: dict[float, dict[int, float]] = {}
        anchor = comm.ctx.read_clock(global_clock)
        for wait in wait_times:
            yield from comm.ctx.wait_until_clock(global_clock, anchor + wait)
            per_client: dict[int, float] = {}
            for client in clients:
                yield from comm.send(client, CHECK_GO_TAG, None, 1)
                yield from offset_alg.measure_offset(
                    comm, global_clock, 0, client
                )
                # The client measured; it reports the value back.
                msg = yield from comm.recv(client, CHECK_GO_TAG)
                per_client[client] = msg.payload
            results[wait] = per_client
        return results
    if rank in clients:
        for _ in wait_times:
            yield from comm.recv(0, CHECK_GO_TAG)
            measurement = yield from offset_alg.measure_offset(
                comm, global_clock, 0, rank
            )
            yield from comm.send(
                0, CHECK_GO_TAG, measurement.offset, 8
            )
    return None


def max_abs_offset(per_client: dict[int, float]) -> float:
    """The paper's y-axis: max |offset| over the checked clients."""
    return max(abs(v) for v in per_client.values())


@dataclass
class SyncRun:
    """One simulated mpirun of a sync algorithm, scored.

    One scatter point of Figs. 3–6, or one round of a scenario cell.
    """

    label: str
    num_nodes: int
    num_ranks: int
    #: Synchronization duration, max across ranks (seconds).
    duration: float
    #: wait_time -> measured max |offset| across checked clients (seconds).
    max_offsets: dict[float, float] = field(default_factory=dict)
    #: Oracle max |global_i - global_0| at the end of the check window.
    ground_truth_error: float = 0.0

    def worst_offset(self) -> float:
        return max(self.max_offsets.values()) if self.max_offsets else 0.0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "num_nodes": self.num_nodes,
            "num_ranks": self.num_ranks,
            "duration": self.duration,
            "max_offsets": {
                f"{wait:g}": offset
                for wait, offset in sorted(self.max_offsets.items())
            },
            "ground_truth_error": self.ground_truth_error,
        }


def run_sync_cell(
    spec: "MachineSpec",
    label: str,
    *,
    num_nodes: int,
    ranks_per_node: int,
    nexchanges: int,
    fitpoint_spacing: float,
    wait_times: Sequence[float],
    seedseq: np.random.SeedSequence,
    scope: str,
    npoints: int,
    time_source: TimeSourceSpec = CLOCK_GETTIME,
    faults: "FaultSchedule | None" = None,
    sample_fraction: float = 1.0,
) -> SyncRun:
    """One accuracy mpirun: synchronize, run Algorithm 6, score.

    Everything (machine, algorithm, offset measurer) is rebuilt from
    picklable arguments, so the cell behaves identically in-process or
    in a :mod:`repro.parallel` worker; a fresh algorithm per run matters
    because algorithms may carry per-engine caches.  ``faults`` makes
    the run adversarial (scenario cells).

    The run attaches the hooks of the run context.  Under a check mode,
    an unfaulted run's global clocks must stay finite, monotone and
    slope-≈1 over the check window (fault schedules may step clocks
    backwards on purpose).  With a telemetry bank, the cell deposits
    its clock-health series under ``scope``: ``sync.duration`` once per
    rank and ``clock.error`` (each rank's global clock against rank
    0's) on a true-time grid of ``npoints`` spanning the check window.
    Every engine and sync zone of the run nests under the profiler
    zone ``job:<label>`` (the run index is not part of the name, so
    runs of one label aggregate into one subtree).
    """
    machine = spec.machine(num_nodes, ranks_per_node)
    algorithm = algorithm_from_label(label, fitpoint_spacing=fitpoint_spacing)
    offset_alg = SKaMPIOffset(nexchanges=nexchanges)
    sample_seed = seed_int(seedseq)
    ctx = current_context()
    bank, prof = ctx.timeseries, ctx.profiler

    def main(rank_ctx, comm):
        t0 = rank_ctx.now
        global_clock = yield from algorithm.sync_clocks(
            comm, rank_ctx.hardware_clock
        )
        duration = rank_ctx.now - t0
        offsets = yield from check_clock_accuracy(
            comm,
            global_clock,
            offset_alg,
            wait_times=wait_times,
            sample_fraction=sample_fraction,
            sample_seed=sample_seed,
        )
        return (duration, offsets, global_clock)

    with (
        bank.scoped(scope) if bank is not None else nullcontext(),
        prof.zone(f"job:{label}") if prof is not None else nullcontext(),
    ):
        sim = Simulation(
            machine=machine,
            network=spec.network(),
            time_source=time_source,
            seed=seedseq,
            fabric=spec.fabric(machine.num_nodes),
            faults=faults,
        )
        durations, offsets, clocks = zip(*sim.run(main).values)
        duration = max(durations)
        span = max(wait_times, default=0.0)
        run = SyncRun(
            label=label,
            num_nodes=machine.num_nodes,
            num_ranks=machine.num_ranks,
            duration=duration,
            max_offsets={
                wait: max_abs_offset(per_client)
                for wait, per_client in offsets[0].items()
            },
            ground_truth_error=ground_truth_accuracy(
                clocks, duration + span
            ),
        )
        if ctx.check is not None and faults is None:
            for rank, clock in enumerate(clocks):
                check_global_clock(
                    clock, duration, duration + max(span, 1.0),
                    rank=rank, label=scope,
                )
        if bank is not None:
            _sample_clock_health(
                bank, durations, clocks, duration, span, npoints
            )
    return run


def _sample_clock_health(
    bank, durations: Sequence[float], clocks: Sequence[Clock],
    duration: float, span: float, npoints: int,
) -> None:
    """Deposit one mpirun's clock-health series into a telemetry bank.

    ``sync.duration`` is sampled once per rank.  ``clock.error`` is each
    rank's global clock read against rank 0's (the sync reference) on a
    regular true-time grid of ``npoints`` over ``[duration, duration +
    span]`` (one second when ``span`` is zero); rank 0 against itself
    is identically zero and is skipped.  Purely post-hoc: the
    simulation is finished, so the reads cannot perturb it.
    """
    for rank, d in enumerate(durations):
        bank.sample("sync.duration", d, d, rank=rank)
    horizon = duration + (span if span > 0.0 else 1.0)
    # One read_many per clock resolves the whole grid (array pass per
    # model layer); read_many is pinned bit-identical to per-element read.
    grid = [
        duration + (horizon - duration) * i / (npoints - 1)
        for i in range(npoints)
    ]
    ts = np.asarray(grid, dtype=np.float64)
    ref_reads = clocks[0].read_many(ts)
    errors = [clk.read_many(ts) - ref_reads for clk in clocks[1:]]
    for i, t in enumerate(grid):
        for rank, err in enumerate(errors, start=1):
            bank.sample("clock.error", t, float(err[i]), rank=rank)


def ground_truth_accuracy(
    clocks: Sequence[Clock], true_time: float, ref_rank: int = 0
) -> float:
    """Oracle: max |clock_i(t) - clock_ref(t)| over all ranks at true ``t``."""
    ref = clocks[ref_rank].read(true_time)
    return max(
        abs(c.read(true_time) - ref)
        for i, c in enumerate(clocks)
        if i != ref_rank
    )
