"""LEARN_CLOCK_MODEL and COMPUTE_AND_SET_INTERCEPT (paper Algorithm 2).

A pair of processes collects ``nfitpoints`` offset measurements (each one a
full run of the configured offset algorithm, all of them one
:meth:`~repro.sync.offset.OffsetAlgorithm.measure_offsets` call, which
for SKaMPI is one engine command per side); the client fits a
:class:`~repro.sync.linear_model.LinearDriftModel` over them.  With
``recompute_intercept`` enabled, one extra offset measurement re-anchors
the intercept after the regression (the paper's accuracy refinement).

``fitpoint_spacing`` inserts client-side think time between fit points.
The paper's configurations take hundreds of ping-pongs per fit point, which
spreads the points over a long-enough baseline for the regression to
resolve ppm-scale slopes; scaled-down simulations use explicit spacing to
preserve that baseline (see EXPERIMENTS.md).  The reference side needs no
pacing — it blocks in its receive until the client's next ping arrives.
The spacing goes to ``measure_offsets`` with the fit points.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import SyncError
from repro.obs.events import PhaseBegin, PhaseEnd
from repro.obs.sync_stats import (
    FitpointSample,
    SyncRoundRecord,
    SyncStatsCollector,
)
from repro.simtime.base import Clock
from repro.sync.linear_model import LinearDriftModel
from repro.sync.offset import OffsetAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def compute_and_set_intercept(
    comm: "Communicator",
    lm: LinearDriftModel | None,
    clock: Clock,
    p_ref: int,
    client: int,
    offset_alg: OffsetAlgorithm,
) -> Generator:
    """Re-anchor the model's intercept from a fresh offset measurement.

    Client: sets ``intercept`` so the model predicts the just-measured
    offset at the measurement timestamp (paper line: ``lm→intercept ←
    lm→slope · (−timestamp) + o_obj→GET_OFFSET()``).  Reference side only
    participates in the measurement and returns ``None``.
    """
    measurement = yield from offset_alg.measure_offset(
        comm, clock, p_ref, client
    )
    if comm.rank == client:
        if lm is None:
            raise SyncError("client must pass the fitted model")
        intercept = lm.slope * (-measurement.timestamp) + measurement.offset
        return lm.with_intercept(intercept)
    return None


def learn_clock_model(
    comm: "Communicator",
    p_ref: int,
    client: int,
    clock: Clock,
    offset_alg: OffsetAlgorithm,
    nfitpoints: int,
    recompute_intercept: bool = False,
    fitpoint_spacing: float = 0.0,
    stats: SyncStatsCollector | None = None,
    level: str = "",
    round_index: int = 0,
    algorithm: str = "",
) -> Generator:
    """Learn the client's drift model relative to ``p_ref``'s clock.

    Collective over the pair; the client returns the fitted
    :class:`LinearDriftModel`, the reference returns ``None``.  Each side
    passes its *own* current clock: in HCA3 the reference passes its global
    clock model, so the client learns a model directly against the emulated
    global time.

    With ``stats`` set, the client deposits one
    :class:`~repro.obs.sync_stats.SyncRoundRecord` (fit points with RTTs,
    fitted model, residuals) tagged with ``level``/``round_index`` —
    recording is passive and does not alter the measured traffic.
    """
    if nfitpoints < 1:
        raise SyncError("nfitpoints must be >= 1")
    rank = comm.rank
    # Causal phase annotations: both sides emit the identical instance
    # descriptor, so the span recorder can attribute any on-path
    # activity of either rank to this learn round.
    sink = comm.ctx.engine.sink
    if sink is not None:
        sink.emit(PhaseBegin(
            time=comm.ctx.now, rank=comm.ctx.rank, name="sync.learn",
            algorithm=algorithm or offset_alg.name, level=level,
            round_index=round_index, ref=comm.global_rank(p_ref),
            peer=comm.global_rank(client),
        ))
    if rank == p_ref:
        yield from offset_alg.measure_offsets(
            comm, clock, p_ref, client, nfitpoints, fitpoint_spacing
        )
        if recompute_intercept:
            yield from compute_and_set_intercept(
                comm, None, clock, p_ref, client, offset_alg
            )
        if sink is not None:
            sink.emit(PhaseEnd(
                time=comm.ctx.now, rank=comm.ctx.rank, name="sync.learn",
            ))
        return None
    if rank != client:
        raise SyncError(
            f"rank {rank} called learn_clock_model for pair "
            f"({p_ref}, {client})"
        )
    t_round_start = comm.ctx.now
    measurements = yield from offset_alg.measure_offsets(
        comm, clock, p_ref, client, nfitpoints, fitpoint_spacing
    )
    xfit = [m.timestamp for m in measurements]
    yfit = [m.offset for m in measurements]
    prof = comm.ctx.engine.profiler
    if prof is not None:
        # Pure-compute section (no yields inside): safe to zone.  The
        # regression is the per-round "fitting" phase of every
        # hierarchy-based algorithm.
        t_fit = prof.push("sync.fit")
    lm = LinearDriftModel.fit(xfit, yfit)
    if prof is not None:
        prof.pop(t_fit)
    bank = comm.ctx.engine.timeseries
    if bank is not None:
        # Drift-model trajectory + round duration for the health layer.
        # Passive (no clock reads, no randomness) like the stats path.
        now = comm.ctx.now
        global_client = comm.global_rank(client)
        bank.sample("sync.model.slope", now, lm.slope, rank=global_client)
        bank.sample(
            "sync.model.intercept", now, lm.intercept, rank=global_client
        )
        bank.sample(
            "sync.round.duration", now, now - t_round_start,
            rank=global_client,
        )
    if stats is not None:
        residuals = tuple(
            y - lm.offset_at(x) for x, y in zip(xfit, yfit)
        )
        stats.record(SyncRoundRecord(
            algorithm=algorithm or offset_alg.name,
            level=level,
            round_index=round_index,
            ref_rank=comm.global_rank(p_ref),
            client_rank=comm.global_rank(client),
            fitpoints=tuple(
                FitpointSample(
                    timestamp=m.timestamp, offset=m.offset, rtt=m.rtt,
                )
                for m in measurements
            ),
            slope=lm.slope,
            intercept=lm.intercept,
            residuals=residuals,
        ))
    if recompute_intercept:
        lm = yield from compute_and_set_intercept(
            comm, lm, clock, p_ref, client, offset_alg
        )
    if sink is not None:
        sink.emit(PhaseEnd(
            time=comm.ctx.now, rank=comm.ctx.rank, name="sync.learn",
        ))
    return lm
