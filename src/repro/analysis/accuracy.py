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
noise.  Experiments report the *measured* value (faithful to the paper);
tests use the oracle to validate the measurement machinery itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Sequence

import numpy as np

from repro.simtime.base import Clock
from repro.simtime.drift import DriftModel
from repro.sync.offset import OffsetAlgorithm

if TYPE_CHECKING:  # pragma: no cover
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


def sync_then_check(
    algorithm,
    offset_alg: OffsetAlgorithm,
    wait_times: Sequence[float],
    sample_fraction: float = 1.0,
    sample_seed: int = 0,
) -> Callable:
    """Rank program of one accuracy mpirun: synchronize, then check.

    Every rank returns ``(duration, offsets, global_clock)``: its own
    synchronization duration, the :func:`check_clock_accuracy` result
    (rank 0 only, ``None`` elsewhere) and its global clock object.
    :func:`sync_check_outcome` and :func:`sample_clock_health` read the
    per-rank list of these tuples.
    """

    def main(ctx, comm):
        t0 = ctx.now
        global_clock = yield from algorithm.sync_clocks(
            comm, ctx.hardware_clock
        )
        duration = ctx.now - t0
        offsets = yield from check_clock_accuracy(
            comm,
            global_clock,
            offset_alg,
            wait_times=wait_times,
            sample_fraction=sample_fraction,
            sample_seed=sample_seed,
        )
        return (duration, offsets, global_clock)

    return main


def sync_check_outcome(values: Sequence[tuple]) -> tuple[float, dict]:
    """One scatter point from the per-rank :func:`sync_then_check` values.

    Returns the synchronization duration (max across ranks) and
    ``{wait_time: max |offset|}`` as measured by rank 0.
    """
    duration = max(v[0] for v in values)
    max_offsets = {
        wait: max_abs_offset(per_client)
        for wait, per_client in values[0][1].items()
    }
    return duration, max_offsets


def sample_clock_health(
    bank, values: Sequence[tuple], duration: float,
    wait_times: Sequence[float], npoints: int,
) -> None:
    """Deposit one mpirun's clock-health series into a telemetry bank.

    ``sync.duration`` is sampled once per rank.  ``clock.error`` is each
    rank's estimated global clock read against rank 0's (the sync
    reference) on a regular true-time grid of ``npoints`` spanning the
    accuracy-check window — rank 0 against itself is identically zero
    and is skipped.  Purely post-hoc: the simulation is finished, so the
    reads cannot perturb it.
    """
    for rank, value in enumerate(values):
        bank.sample("sync.duration", value[0], value[0], rank=rank)
    clocks = [value[2] for value in values]
    span = max(wait_times) if wait_times else 0.0
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


def error_bound(
    model,
    age: float,
    drift: DriftModel | float,
    base_error: float = 0.0,
) -> float:
    """Worst-case global-clock error ``age`` seconds after a sync.

    This is the paper's accuracy analysis turned into a contract: a
    linear model fitted at sync time starts with ``base_error`` (the
    fit's residual/measurement error) and degrades as the oscillator's
    skew wanders away from the fitted slope.  ``drift`` is either the
    client's :class:`~repro.simtime.drift.DriftModel` (its
    ``error_growth`` supplies a per-family bound on the integrated skew
    deviation) or a plain float rate in s/s (worst case
    ``|rate| * age``).  ``model`` is the fitted
    :class:`~repro.sync.linear_model.LinearDriftModel`; correcting local
    time by a slope rescales accumulated local error by at most
    ``1 + |slope|``.

    The bound is what the service layer reports as per-response
    staleness and what error-bound-driven resync policies compare
    against their SLO.  A negative ``age`` (clock not yet synced) is
    treated as unboundedly stale.
    """
    if age < 0.0:
        return float("inf")
    if isinstance(drift, DriftModel):
        growth = drift.error_growth(age)
    else:
        growth = abs(float(drift)) * age
    slope = getattr(model, "slope", 0.0) if model is not None else 0.0
    return base_error + (1.0 + abs(slope)) * growth
