"""Engine event stream: typed records and the pluggable sink protocol.

The engine and communicator emit one record per noteworthy state change —
message injection/delivery, process block/wake, NIC queueing, collective
entry/exit.  All timestamps are *true* simulation times (the ground truth
processes themselves cannot observe); :mod:`repro.obs.chrome_trace` can
remap them through any per-rank clock to produce the "what a tracer with
this clock would have seen" view of the paper's Fig. 10.

Zero overhead when disabled: every emission site is guarded by a single
``if sink is not None`` check, so with no sink installed the engine does
no event-object construction at all.  Sinks must be passive — ``emit``
must not touch the engine, draw randomness, or raise.

Records are slotted, not frozen (a frozen ``__init__`` pays one
``object.__setattr__`` per field), so sinks must not mutate them either.
Field order is an API: the engine builds ``MsgSend``, ``MsgDeliver``,
``ProcBlock``, ``ProcWake`` and ``NicQueue`` positionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable


# ----------------------------------------------------------------------
# Event records (all times are true simulation times, in seconds)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class MsgSend:
    """A point-to-point message was injected by ``rank``."""

    time: float
    rank: int
    dest: int
    tag: int
    size: int
    seq: int
    #: Name of the pair's ``Level``: SELF, SOCKET, NODE or REMOTE.
    level: str
    synchronous: bool = False


@dataclass(slots=True)
class MsgDeliver:
    """A message completed delivery at the receiver (``rank``)."""

    time: float
    rank: int
    source: int
    tag: int
    size: int
    seq: int
    #: send-to-delivery latency (true time, includes queueing + overheads).
    latency: float
    #: True arrival time at the receiver (before the o_recv charge), or
    #: -1.0 for streams recorded before the field existed.
    arrival: float = -1.0
    #: True when the receiver's timeline was advanced *to* the arrival —
    #: i.e. the receiver sat waiting and this delivery is the binding
    #: dependency that let it proceed (the edge the critical-path walk in
    #: :mod:`repro.obs.causal` follows).  False when the message was
    #: already waiting in the mailbox.
    waited: bool = False


@dataclass(slots=True)
class ProcBlock:
    """A process blocked: ``reason`` is ``"recv"`` or ``"ssend"``."""

    time: float
    rank: int
    reason: str
    source: int = -1
    tag: int = -1


@dataclass(slots=True)
class ProcWake:
    """A blocked process became runnable again.

    ``cause`` names what released it — ``"deliver"`` (a matching message
    arrived for a blocked receive) or ``"ack"`` (a rendezvous sender's
    ack returned) — with ``seq`` the responsible message, so wakes are
    causal edges and not just state flips.  Both default to their
    "unknown" values for streams recorded before the fields existed.
    """

    time: float
    rank: int
    cause: str = ""
    seq: int = -1


@dataclass(slots=True)
class NicQueue:
    """A remote message found a busy NIC and queued behind ``backlog``."""

    time: float
    rank: int
    node: int
    #: Queue depth (in NIC gaps) the message found at injection.
    backlog: float
    #: True time at which the message actually entered the wire.
    inject_time: float


@dataclass(slots=True)
class FaultInject:
    """A scheduled fault perturbs the simulation from ``time`` on.

    Emitted once per fault when the engine starts (the schedule is known
    a priori, so the spans carry exact virtual times).  ``rank`` is the
    affected rank, or -1 for node-/cluster-scoped faults; ``target`` is
    the descriptor string (``node:3``, ``level:REMOTE``, ``cluster``).
    """

    time: float
    rank: int
    kind: str
    name: str
    target: str
    duration: float = 0.0


@dataclass(slots=True)
class ResyncRound:
    """A :class:`~repro.sync.resync.PeriodicResyncClock` re-synchronized.

    ``round_index`` counts sync rounds on this rank (1 = initial sync);
    ``age`` is the global-clock age that triggered the round, or -1 when
    unknown (non-root ranks, initial sync).
    """

    time: float
    rank: int
    round_index: int
    age: float = -1.0


@dataclass(slots=True)
class CollectiveEnter:
    """A rank entered a collective operation (e.g. ``MPI_Allreduce``)."""

    time: float
    rank: int
    name: str
    comm_id: int
    comm_rank: int
    comm_size: int


@dataclass(slots=True)
class CollectiveExit:
    """A rank left a collective operation."""

    time: float
    rank: int
    name: str
    comm_id: int
    comm_rank: int
    comm_size: int


@dataclass(slots=True)
class PhaseBegin:
    """A rank entered an annotated algorithm phase.

    Emitted by the sync layer (``sync.learn`` / ``sync.offset`` /
    ``sync.resync``) on *both* sides of a pairwise exchange with
    identical descriptors (a SKaMPI measurement's ``sync.offset`` by
    the engine, from the phase descriptor of its ``ExchangeCmd``), so a
    phase instance is identified by ``(name, algorithm, level,
    round_index, ref, peer)`` regardless of which rank's events are
    inspected.  The critical-path analysis in
    :mod:`repro.obs.causal` counts distinct ``sync.learn`` instances
    traversed to measure empirical round depth.
    """

    time: float
    rank: int
    name: str
    algorithm: str = ""
    level: str = ""
    round_index: int = -1
    #: Global rank of the pair's reference side (-1 when not pairwise).
    ref: int = -1
    #: Global rank of the pair's client side (-1 when not pairwise).
    peer: int = -1


@dataclass(slots=True)
class PhaseEnd:
    """A rank left an annotated algorithm phase (matches by ``name``)."""

    time: float
    rank: int
    name: str


Event = (
    MsgSend
    | MsgDeliver
    | ProcBlock
    | ProcWake
    | NicQueue
    | FaultInject
    | ResyncRound
    | CollectiveEnter
    | CollectiveExit
    | PhaseBegin
    | PhaseEnd
)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
@runtime_checkable
class EventSink(Protocol):
    """Anything with an ``emit(event)`` method can observe the engine."""

    def emit(self, event: Event) -> None:  # pragma: no cover - protocol
        ...


class RecordingSink:
    """Keeps every event in emission order (true-time order per rank)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, *types: type) -> list[Event]:
        """Events that are instances of any of ``types``."""
        return [e for e in self.events if isinstance(e, types)]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class CountingSink:
    """Counts events per record type; O(1) memory for arbitrary runs."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def emit(self, event: Event) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def clear(self) -> None:
        self.counts.clear()
