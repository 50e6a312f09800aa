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
``measure_offsets`` takes ``k`` measurements the same way, the client
pausing ``spacing`` between them (a learn round's fit points); the client
returns the list.

The ping-pongs themselves are commands (:meth:`Communicator.exchange`):
the engine plays the round trips and takes the clock readings between
the legs, and the client gets the per-round ``(before, stamp, after)``
readings back to do the arithmetic on.  SKaMPI takes all ``k``
measurements in one command per side: the engine also reads the client's
timestamp after each measurement, elapses the spacing and, with a sink
attached, emits each measurement's ``sync.offset`` phase on both sides.
Mean-RTT keeps a loop of one measurement at a time, because its first
measurement of a pair carries the RTT estimate.
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

#: The exchange shapes, as globals: reading an enum member off its class
#: goes through the enum metaclass's attribute hook, about ten times the
#: cost of a global read (see ``simmpi.engine``).
_STAMPED = ExchangeShape.STAMPED
_TIMED = ExchangeShape.TIMED
_RENDEZVOUS = ExchangeShape.RENDEZVOUS


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

    def measure_offsets(
        self,
        comm: "Communicator",
        clock: Clock,
        p_ref: int,
        client: int,
        k: int,
        spacing: float,
    ) -> Generator:
        """Collective over {p_ref, client}: ``k`` measurements, the client
        computing for ``spacing`` seconds between two of them.  The client
        returns the list of ClockOffsets, the reference None."""
        offsets = []
        for idx in range(k):
            offset = yield from self.measure_offset(comm, clock, p_ref, client)
            offsets.append(offset)
            if spacing > 0.0 and idx != k - 1 and comm.rank == client:
                yield from comm.ctx.elapse(spacing)
        return offsets if comm.rank == client else None

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
        points: int = 1,
        spacing: float = 0.0,
        phase: tuple | None = None,
    ) -> Generator:
        """This rank's side of ``points`` measurements of ``n`` ping-pongs
        of the pair: the client initiates and gets each point's rounds
        and timestamp, the reference answers and gets None."""
        rank = comm.rank
        if rank != p_ref and rank != client:
            raise SyncError(
                f"rank {rank} called measure_offset for pair "
                f"({p_ref}, {client})"
            )
        return comm.exchange(
            client if rank == p_ref else p_ref, PINGPONG_TAG, n, clock,
            shape, rank == client, TIMESTAMP_BYTES, points, spacing, phase,
        )


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
        offsets = yield from self.measure_offsets(
            comm, clock, p_ref, client, 1, 0.0
        )
        return None if offsets is None else offsets[0]

    def measure_offsets(
        self,
        comm: "Communicator",
        clock: Clock,
        p_ref: int,
        client: int,
        k: int,
        spacing: float,
    ) -> Generator:
        """One command per side for all ``k`` measurements."""
        points = yield from self._pingpongs(
            comm, clock, p_ref, client, self.nexchanges, _STAMPED, k,
            spacing, ("sync.offset", self.name, comm.global_rank(p_ref),
                      comm.global_rank(client)),
        )
        if points is None:
            return None
        offsets = []
        for rounds, timestamp in points:
            # td_min/td_max bound (ref - client); names follow the paper.
            td_min = -np.inf
            td_max = np.inf
            rtt_min = np.inf
            for s_last, t_last, s_now in rounds:
                td_min = max(td_min, t_last - s_now)
                td_max = min(td_max, t_last - s_last)
                rtt_min = min(rtt_min, s_now - s_last)
            diff = (td_min + td_max) / 2.0  # estimate of (ref - client)
            # Positional: keyword construction costs about twice as much.
            offsets.append(ClockOffset(timestamp, -diff, float(rtt_min)))
        prof = comm.ctx.engine.profiler
        if prof is not None:
            # The exchange wall time itself lives in the engine's
            # send/recv zones; this marks the completed offset rounds.
            prof.tick("sync.offset.rounds", k)
        return offsets


class MeanRTTOffset(OffsetAlgorithm):
    """Algorithm 8: mean-RTT estimate + median of per-exchange offsets.

    The RTT between a pair is measured once and cached (the paper's
    ``have_rtt`` flag); ``rtt_pingpongs`` controls that estimate's sample
    count.  Reply messages use a synchronous send, as in the original.

    The cache is an attribute of the communicator the pair measured
    over (``comm.attrs``), so an instance reused across simulations
    re-measures instead of serving a dead run's RTT, and holds no
    per-run state itself.

    ``measure_offsets`` is the base class's loop of one measurement at a
    time, since a pair's first measurement carries the RTT exchange.
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
            points = yield from self._pingpongs(
                comm, clock, p_ref, client, self.rtt_pingpongs, _TIMED,
            )
            rtt_cache[key] = 0.0 if points is None else float(
                np.mean([t1 - t0 for t0, _, t1 in points[0][0]])
            )
        rtt = rtt_cache[key]
        points = yield from self._pingpongs(
            comm, clock, p_ref, client, self.nexchanges, _RENDEZVOUS,
        )
        if points is None:
            self._phase_end(comm)
            return None
        rounds = points[0][0]
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
            float(local_times[med_idx]), float(time_var[med_idx]), float(rtt)
        )
        if prof is not None:
            prof.pop(t0)
            prof.tick("sync.offset.rounds")
        self._phase_end(comm)
        return offset

    # -- causal phase annotations (see repro.obs.spans); SKaMPI's come
    # from the engine, through its command's phase descriptor ----------
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
