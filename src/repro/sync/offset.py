"""Clock-offset measurement between a reference and a client process.

Both algorithms are faithful implementations of the paper's Appendix A:

* :class:`SKaMPIOffset` (Algorithm 7) — ping-pongs that track the tightest
  window ``[t_last - s_now, t_last - s_last]`` around the reference
  timestamp; the midpoint estimates the offset.  Minimum-delay filtering
  means "if a timing packet is lucky enough to experience the minimum
  delay, its timestamps have not been corrupted" (Ridoux & Veitch).
* :class:`MeanRTTOffset` (Algorithm 8, Jones & Koenig) — estimates the RTT
  once per pair (cached), then derives per-exchange offsets as
  ``local - ref - rtt/2`` and takes the median.

Sign convention: the returned :class:`ClockOffset` carries
``offset = client_reading - reference_reading`` (see
:mod:`repro.sync.linear_model`), measured at client-clock ``timestamp``.

Both sides of a pair call ``measure_offset`` collectively; the client
returns the measurement, the reference returns ``None``.

The ping-pongs themselves are one command per side
(:meth:`Communicator.exchange`): the engine plays the round trips and
takes the clock readings between the legs, and the client gets the
per-round ``(before, stamp, after)`` readings back to do the arithmetic
on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.errors import SyncError
from repro.obs.events import PhaseBegin, PhaseEnd
from repro.simmpi.engine import PINGPONG_TAG, ExchangeShape
from repro.simtime.base import Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator

#: Wire size of one timestamp message (a double).
TIMESTAMP_BYTES = 8


@dataclass(frozen=True)
class ClockOffset:
    """One offset measurement: (client timestamp, client - ref offset)."""

    timestamp: float
    offset: float
    #: Observed round-trip time while measuring (diagnostics; the minimum
    #: over the exchanges for SKaMPI, the cached estimate for Mean-RTT).
    rtt: float | None = None


class OffsetAlgorithm(abc.ABC):
    """Measures the current offset between a client and a reference clock."""

    name: str = "offset"

    def __init__(self, nexchanges: int = 10) -> None:
        if nexchanges < 1:
            raise SyncError("nexchanges must be >= 1")
        self.nexchanges = nexchanges

    @abc.abstractmethod
    def measure_offset(
        self,
        comm: "Communicator",
        clock: Clock,
        p_ref: int,
        client: int,
    ) -> Generator:
        """Collective over {p_ref, client}: client returns a ClockOffset."""

    def label(self) -> str:
        return f"{self.name}/{self.nexchanges}"

    def _pingpongs(
        self,
        comm: "Communicator",
        clock: Clock,
        p_ref: int,
        client: int,
        n: int,
        shape: ExchangeShape,
    ) -> Generator:
        """This rank's side of ``n`` ping-pongs of the pair: the client
        initiates and gets the per-round readings, the reference answers
        and gets None."""
        rank = comm.rank
        if rank != p_ref and rank != client:
            raise SyncError(
                f"rank {rank} called measure_offset for pair "
                f"({p_ref}, {client})"
            )
        return comm.exchange(
            client if rank == p_ref else p_ref, PINGPONG_TAG, n, clock,
            shape, initiator=rank == client, size=TIMESTAMP_BYTES,
        )

    # -- causal phase annotations (see repro.obs.spans) ---------------
    def _phase_begin(self, comm: "Communicator", p_ref: int,
                     client: int) -> None:
        sink = comm.ctx.engine.sink
        if sink is not None:
            sink.emit(PhaseBegin(
                time=comm.ctx.now, rank=comm.ctx.rank,
                name="sync.offset", algorithm=self.name,
                ref=comm.global_rank(p_ref),
                peer=comm.global_rank(client),
            ))

    def _phase_end(self, comm: "Communicator") -> None:
        sink = comm.ctx.engine.sink
        if sink is not None:
            sink.emit(PhaseEnd(
                time=comm.ctx.now, rank=comm.ctx.rank,
                name="sync.offset",
            ))


class SKaMPIOffset(OffsetAlgorithm):
    """Algorithm 7: minimum-delay window around the reference timestamp."""

    name = "skampi_offset"

    def measure_offset(
        self,
        comm: "Communicator",
        clock: Clock,
        p_ref: int,
        client: int,
    ) -> Generator:
        ctx = comm.ctx
        self._phase_begin(comm, p_ref, client)
        rounds = yield from self._pingpongs(
            comm, clock, p_ref, client, self.nexchanges,
            ExchangeShape.STAMPED,
        )
        if rounds is None:
            self._phase_end(comm)
            return None
        # td_min/td_max bound (ref - client); names follow the paper.
        td_min = -np.inf
        td_max = np.inf
        rtt_min = np.inf
        for s_last, t_last, s_now in rounds:
            td_min = max(td_min, t_last - s_now)
            td_max = min(td_max, t_last - s_last)
            rtt_min = min(rtt_min, s_now - s_last)
        diff = (td_min + td_max) / 2.0  # estimate of (ref - client)
        timestamp = ctx.read_clock(clock)
        prof = ctx.engine.profiler
        if prof is not None:
            # The exchange wall time itself lives in the engine's
            # send/recv zones; this marks one completed offset round.
            prof.tick("sync.offset.rounds")
        self._phase_end(comm)
        return ClockOffset(
            timestamp=timestamp, offset=-diff, rtt=float(rtt_min)
        )


class MeanRTTOffset(OffsetAlgorithm):
    """Algorithm 8: mean-RTT estimate + median of per-exchange offsets.

    The RTT between a pair is measured once and cached (the paper's
    ``have_rtt`` flag); ``rtt_pingpongs`` controls that estimate's sample
    count.  Reply messages use a synchronous send, as in the original.

    The cache is an attribute of the communicator the pair measured
    over (``comm.attrs``), so an instance reused across simulations
    re-measures instead of serving a dead run's RTT, and holds no
    per-run state itself.
    """

    name = "mean_rtt_offset"

    def __init__(self, nexchanges: int = 10, rtt_pingpongs: int = 10) -> None:
        super().__init__(nexchanges)
        if rtt_pingpongs < 1:
            raise SyncError("rtt_pingpongs must be >= 1")
        self.rtt_pingpongs = rtt_pingpongs

    def measure_offset(
        self,
        comm: "Communicator",
        clock: Clock,
        p_ref: int,
        client: int,
    ) -> Generator:
        ctx = comm.ctx
        self._phase_begin(comm, p_ref, client)
        rtt_cache = comm.attrs.setdefault(self, {})
        key = (p_ref, client)
        if key not in rtt_cache:
            # Mean round-trip time, measured at the client; the reference
            # side does not need the value.
            rounds = yield from self._pingpongs(
                comm, clock, p_ref, client, self.rtt_pingpongs,
                ExchangeShape.TIMED,
            )
            rtt_cache[key] = 0.0 if rounds is None else float(
                np.mean([t1 - t0 for t0, _, t1 in rounds])
            )
        rtt = rtt_cache[key]
        rounds = yield from self._pingpongs(
            comm, clock, p_ref, client, self.nexchanges,
            ExchangeShape.RENDEZVOUS,
        )
        if rounds is None:
            self._phase_end(comm)
            return None
        local_times = np.empty(self.nexchanges)
        time_var = np.empty(self.nexchanges)
        for i, (_, ref_time, local_time) in enumerate(rounds):
            local_times[i] = local_time
            # current offset estimate: client - ref (ref_time was stamped
            # ~rtt/2 before our read).
            time_var[i] = local_times[i] - ref_time - rtt / 2.0
        prof = ctx.engine.profiler
        if prof is not None:
            t0 = prof.push("sync.offset.estimate")
        med_idx = int(np.argsort(time_var)[self.nexchanges // 2])
        offset = ClockOffset(
            timestamp=float(local_times[med_idx]),
            offset=float(time_var[med_idx]),
            rtt=float(rtt),
        )
        if prof is not None:
            prof.pop(t0)
            prof.tick("sync.offset.rounds")
        self._phase_end(comm)
        return offset
