"""Periodic re-synchronization — the paper's future-work extension.

Section III-C2 bounds the validity of a linear clock model to roughly
0–20 s: beyond that, drift non-linearity degrades the global clock, which
is why "MPI tracing tools ... have to re-synchronize clocks periodically"
(Doleschal et al., cited in Section II).  :class:`PeriodicResyncClock`
packages that policy: it owns a synchronization algorithm and re-runs it
whenever the current model is older than ``max_model_age`` seconds,
giving long-running campaigns a clock whose error stays bounded instead
of growing linearly with elapsed time.  The error-driven policy (resync
when the *predicted* error approaches an SLO) lives in the service
layer, :class:`repro.service.slo.ErrorBoundResyncPolicy`, which sweeps
it against periodic schedules.

Usage (inside an SPMD body)::

    resync = PeriodicResyncClock(h2hca(...), max_model_age=10.0)
    clock = yield from resync.ensure(comm, ctx)   # syncs on first call
    ...
    clock = yield from resync.ensure(comm, ctx)   # re-syncs when stale

``ensure`` is collective: all ranks observe the same staleness decision
because it is based on the *global* clock reading at the previous sync,
agreed via a broadcast of rank 0's ``(stale, age)`` decision payload
(rank 0 is the time source), so ranks never disagree about whether a
resync round happens — and every rank knows the model age, so
service-side staleness bounds hold off-root too.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Generator

from repro.errors import SyncError
from repro.obs.events import PhaseBegin, PhaseEnd, ResyncRound
from repro.simtime.base import Clock
from repro.sync.base import ClockSyncAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator
    from repro.simmpi.process import ProcessContext

#: Simulated size of rank 0's broadcast decision: a flag byte plus the
#: 8-byte model age.
RESYNC_DECISION_BYTES = 9


class ResyncClock(abc.ABC):
    """Keeps a global clock fresh by re-running the sync algorithm.

    Subclasses supply the staleness policy (:meth:`_stale`); the
    collective machinery — decide on rank 0, broadcast ``(stale, age)``,
    re-sync, emit telemetry — is shared.
    """

    def __init__(self, algorithm: ClockSyncAlgorithm) -> None:
        self.algorithm = algorithm
        self._clock: Clock | None = None
        self._synced_at: float | None = None  # global-clock reading
        self.resync_count = 0
        #: Model age at the most recent ``ensure`` decision, in global
        #: seconds; identical on every rank (broadcast from rank 0) and
        #: ``-1.0`` until the first post-sync decision.
        self.last_age = -1.0

    @property
    def clock(self) -> Clock:
        if self._clock is None:
            raise SyncError("ensure() has not run yet")
        return self._clock

    @abc.abstractmethod
    def _stale(self, age: float, ctx: "ProcessContext") -> bool:
        """Rank 0's policy decision: re-sync a model ``age`` seconds old?"""

    @abc.abstractmethod
    def label(self) -> str:
        """Human-readable policy tag for reports and figures."""

    def ensure(
        self, comm: "Communicator", ctx: "ProcessContext"
    ) -> Generator:
        """Return a fresh global clock, re-synchronizing if stale.

        Collective over ``comm``.  The staleness decision is made by rank
        0 against its own (identity) global clock and broadcast together
        with the model age, so every rank takes the same branch *and*
        reports the same age.
        """
        age = -1.0  # unknown before the first sync completes
        if self._clock is None:
            stale = True
        elif comm.rank == 0:
            age = ctx.read_clock(self._clock) - self._synced_at
            stale = self._stale(age, ctx)
        else:
            stale = False  # decided by rank 0 below
        if self._clock is not None:
            stale, age = yield from comm.bcast(
                (stale, age) if comm.rank == 0 else None,
                root=0, size=RESYNC_DECISION_BYTES,
            )
        self.last_age = age
        if stale:
            engine = ctx.engine
            if engine.sink is not None:
                # Bound the round for the causal span recorder; every
                # rank reports the same round_index (collective branch).
                engine.sink.emit(PhaseBegin(
                    time=ctx.now, rank=ctx.rank, name="sync.resync",
                    algorithm=getattr(self.algorithm, "name", ""),
                    round_index=self.resync_count + 1,
                ))
            self._clock = yield from self.algorithm.sync_clocks(
                comm, ctx.hardware_clock
            )
            if engine.sink is not None:
                engine.sink.emit(PhaseEnd(
                    time=ctx.now, rank=ctx.rank, name="sync.resync",
                ))
            self._synced_at = ctx.read_clock(self._clock)
            self.resync_count += 1
            # Recovery is observable: one event + counter tick per round.
            if engine.profiler is not None:
                # The round's wall time is spread over the engine zones
                # (the sync traffic yields); count the round itself.
                engine.profiler.tick("sync.resync.rounds")
            if engine.sink is not None:
                engine.sink.emit(ResyncRound(
                    time=ctx.now, rank=ctx.rank,
                    round_index=self.resync_count, age=age,
                ))
            if engine.metrics is not None:
                engine.metrics.counter("resync.rounds", ctx.rank).inc()
            if engine.timeseries is not None:
                bank = engine.timeseries
                if age >= 0.0:
                    bank.sample("resync.age", ctx.now, age, rank=ctx.rank)
                # Resync markers segment the drift-excursion detector's
                # slope fits (see repro.obs.health).
                bank.mark(
                    "resync", ctx.now, f"round{self.resync_count}",
                    rank=ctx.rank,
                )
        return self._clock


class PeriodicResyncClock(ResyncClock):
    """Re-syncs on a fixed model-age schedule (the paper's policy)."""

    def __init__(
        self,
        algorithm: ClockSyncAlgorithm,
        max_model_age: float = 10.0,
    ) -> None:
        if max_model_age <= 0.0:
            raise SyncError("max_model_age must be > 0")
        super().__init__(algorithm)
        self.max_model_age = max_model_age

    def _stale(self, age: float, ctx: "ProcessContext") -> bool:
        return age >= self.max_model_age

    def label(self) -> str:
        return f"resync[{self.max_model_age:g}s]/{self.algorithm.label()}"
