"""Deterministic discrete-event engine for simulated MPI processes.

Each simulated process is a Python generator that *carries its own current
true time* (``ProcessContext.now``) and yields command objects:

* :class:`SendCmd` — deposit a message (eager or rendezvous),
* :class:`RecvCmd` — blocking receive with source/tag matching,
* :class:`SendRecvCmd` — fused exchange (send, then blocking receive),
* :class:`ExchangeCmd` — one side of a learn round's offset measurements
  (its fit points), *n* timestamped ping-pongs each; the engine plays the
  legs, the clock reads, the pauses between points and their phase
  records itself,
* :class:`ElapseCmd` / :class:`WaitUntilCmd` — advance local time.

The engine executes a process *inline* until it blocks on an unmatched
receive or a rendezvous acknowledgement — with a **causality gate** on the
commands whose effects other ranks can see.  Those are the *ordered*
commands: the send of a ``SendCmd``/``SendRecvCmd`` (NIC egress/ingress
tables, message sequence numbers, where a deposit lands in the
destination's mailbox, the injector's delay/gap/payload hooks) and a
``RecvCmd`` from ``ANY_SOURCE`` (reads the order of a mailbox across
sources).  An ordered command executes only when no other rank can act
before it, otherwise it is deferred and re-issued when the event queue
catches up; ordered commands therefore happen in simulated-time order
(the sanitizer's ``send-order`` rule).  Everything else runs ungated: a
``RecvCmd`` from a named source reads only that source's messages, which
sit in the source's program order whatever the interleaving (MPI
non-overtaking), and finding the message or blocking and being woken by
it both end at ``max(now, arrival) + o_recv``; ``ElapseCmd`` and
``WaitUntilCmd`` move the rank's own time line only; rank code between
commands touches rank-local state.  One exception is read off the
injector: a receive that completes a rendezvous prices the ack through
``perturb_delay``, so under an injector whose delay hook keeps state
between calls (``stateful_delays``, a bottleneck queue) receives are
ordered too.

One send is not ordered: a **hand-over**, a send whose receiver is already
blocked on a receive that names this sender and accepts its tag, on a pair
whose level is not ``REMOTE``, under an injector without
``stateful_delays``.  It runs at once, through the same ``_do_send`` wake,
however far ahead of the frontier its rank is, because none of what the
gate protects is in play: the NIC tables and the fabric hook are
``REMOTE``-only; the delay draw, the injector's delay and payload hooks
and an ack's pricing use only the sender's pool and RNG and the blocked
receiver's; a named receive consumes the message at once, so it never
sits in a mailbox where an ``ANY_SOURCE`` receive could see its position;
and the receiver resumes at ``max(now, arrival) + o_recv`` in either host
order.  Only its ``seq`` number, a host-order fact, differs.  This is the
node-local half of a ping-pong (and of a binomial tree's first rounds),
which then never touches the queue.

A wake is not a queue event.  A send that finds its receiver waiting (and
a receive that releases a rendezvous sender) puts the woken rank on a
**ready list**, which the running activation drains (last woken first)
before the loop pops the next event, and while the list is non-empty
every ordered command defers, which keeps the waker from overtaking the
rank it just woke.  Every runnable rank is thus in the queue, on the
ready list, or the one running, and the queue holds only starts and
deferred ordered commands: one activation per event, at most one event
per message when ranks run concurrently, none for a serial ping-pong or a
hand-over.

An :class:`ExchangeCmd` is a program, not an action: the engine expands it
into the ``SendCmd``/``RecvCmd``/``SendRecvCmd`` legs, clock reads and
``ElapseCmd`` pauses the rank would have issued one generator resume at a
time, and by default each leg goes through the gate (its sends do, its
receives name their source), the send path and the delivery path like any
other command.  One command is a whole learn round (Algorithm 2): its
``points`` measurements of ``n`` round trips each, a ``STAMPED``
initiator's timestamp read after each, the initiator's ``spacing`` pause
between two (the injector's ``perturb_compute`` included) and, with a
sink attached, each point's ``sync.offset`` ``PhaseBegin``/``PhaseEnd``
on both sides, at the true times and stream positions where a rank
program taking one measurement per command would emit them.  *Accepting*
it touches no shared state and is not gated.  When an initiator's ping
has passed the gate (or is a hand-over) and finds its responder already
blocked in the matching exchange (same pair, tag, ``STAMPED`` or ``TIMED``
shape and rounds left, no stray message from the responder on that tag in
the initiator's mailbox, no ``stateful_delays`` injector), the **exchange
loop** (``_play_exchange``) plays their round trips in one call.  Only
the two ranks act there and nothing is scheduled, so the frontier and the
ready list stay those of the gate that let the ping through, and each
leg's gate test is one comparison: a leg defers only on a ``REMOTE`` pair,
when the ready list is non-empty or its sender is past the frontier.
Each message is priced by the one pricing body (``_price``, which
``_do_send`` calls too, NIC tables in global send order), every hook
fires per message and read as on the leg path, and the loop stops where
the gate would defer a leg or the last point's last pong is delivered,
leaving the state the leg path would have at that point; it runs on from
one point into the next, taking the phase records, timestamp read and
pause where the leg path takes them.  ``RENDEZVOUS`` legs, and
legs whose peer is not waiting yet, take the leg path.

There is one configuration of the kernel.  Pending events, at most one
per rank, live in a binary heap (:class:`repro.simmpi.eventq.HeapQueue`;
DESIGN §14 times it against a calendar queue up to p = 4096), and every
message outside the exchange loop goes through one send path
(``_do_send``) and one delivery path (``_finish_delivery``); all of them
are priced by ``_price``.  The six optional hooks — event sink, metrics
registry, time-series bank, fault injector, profiler, fabric pricing —
are read into locals at the top of those methods and each hook site is
one ``is not None`` test on a local, so a run with no hook attached pays
a dozen pointer comparisons per message and nothing else.

Determinism: queue ties are broken by a monotonic sequence number, and all
randomness flows from per-process `numpy` generators spawned from a single
:class:`numpy.random.SeedSequence` — identical seeds give bit-identical
simulations, with or without hooks attached
(``tests/simmpi/test_obs_determinism.py`` pins this hook by hook).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import log1p
from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro.errors import DeadlockError, MatchingError, SimulationError
from repro.obs.events import (
    EventSink, MsgDeliver, MsgSend, NicQueue, PhaseBegin, PhaseEnd,
    ProcBlock, ProcWake,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesBank
from repro.simmpi.eventq import HeapQueue
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message
from repro.simmpi.network import Level, NetworkModel, draw_delay
from repro.simmpi.rngpool import UniformPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.prof.core import Profiler
    from repro.simtime.base import Clock

#: ``MsgSend.level`` indexed by :class:`Level`: a tuple read, where
#: ``level.name`` is an enum descriptor call per send.
_LEVEL_NAMES = tuple(level.name for level in Level)
#: Enum members the hot paths compare against, as globals: reading one
#: off its class goes through the enum metaclass's attribute hook, about
#: ten times the cost of a global read.
_REMOTE = Level.REMOTE


# ----------------------------------------------------------------------
# Commands a process generator may yield
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SendCmd:
    """Send ``payload`` (``size`` bytes on the wire) to global rank ``dest``.

    ``synchronous=True`` models ``MPI_Ssend``: the sender blocks until the
    receiver has matched the message, then pays one ack latency.

    ``size`` is validated here, at construction, so a negative size can
    never reach the delay/``bytes_sent`` accounting paths — the network
    model's per-message ``delay`` call stays check-free.
    """

    dest: int
    tag: int
    payload: Any = None
    size: int = 8
    synchronous: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(
                f"message size must be >= 0, got {self.size}"
            )


@dataclass(slots=True)
class RecvCmd:
    """Blocking receive; yields back the matched :class:`Message`."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass(slots=True)
class SendRecvCmd:
    """Fused ``MPI_Sendrecv``: eager send, then a blocking receive.

    Semantically identical to yielding a :class:`SendCmd` followed by a
    :class:`RecvCmd` — the engine performs the send half, re-evaluates the
    causality gate at exactly the point the separate ``RecvCmd`` would
    have been gated, then runs the receive half.  Fusing skips one full
    generator resume through the ``comm.sendrecv``/``ctx.sendrecv`` frame
    chain per exchange, which is the dominant per-message interpreter
    cost in exchange-heavy workloads (ring offset collection, recursive
    doubling).  Results are bit-identical to the unfused pair.
    """

    dest: int
    tag: int
    payload: Any = None
    size: int = 8
    source: int = ANY_SOURCE
    recv_tag: int = ANY_TAG

    # _do_send reads ``cmd.synchronous``; a fused exchange is always an
    # eager send (MPI_Sendrecv has no rendezvous variant here), so this is
    # a class attribute rather than a per-instance field.
    synchronous = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(
                f"message size must be >= 0, got {self.size}"
            )


#: Tag of the offset ping-pong traffic (within the comm's user-tag
#: space).  It lives next to the leg shapes, below the sync layer, so
#: that the fault injector can tell a sync timestamp on the wire without
#: importing :mod:`repro.sync`, which imports this module.
PINGPONG_TAG = 7


class ExchangeShape(enum.Enum):
    """The ping-pong leg shapes of the paper's Appendix A, as
    :mod:`repro.sync.offset` plays them (``ping`` travels initiator →
    responder, ``pong`` back; "stamped" means the payload is the sender's
    clock reading taken just before the send)."""

    #: SKaMPI (Algorithm 7): stamped eager ping, stamped eager pong; the
    #: initiator also reads its clock when the pong arrives.
    STAMPED = "stamped"
    #: RTT estimate (Algorithm 8, ``have_rtt``): the initiator reads its
    #: clock around an eager ping of ``0.0``; the responder reads nothing
    #: and answers ``0.0``.
    TIMED = "timed"
    #: Mean-RTT (Algorithm 8): synchronous ping of ``0.0`` taken without a
    #: reading, stamped synchronous pong, one reading on arrival.
    RENDEZVOUS = "rendezvous"


_STAMPED = ExchangeShape.STAMPED  # as globals: see _REMOTE
_TIMED = ExchangeShape.TIMED
_RENDEZVOUS = ExchangeShape.RENDEZVOUS


@dataclass(slots=True)
class ExchangeCmd:
    """One side of ``points`` offset measurements with global rank
    ``peer``, each ``n`` timestamped round trips: a learn round's fit
    points in one command.

    The initiator (the client of an offset measurement) gets back one
    ``(rounds, timestamp)`` pair per point.  ``rounds`` holds ``n``
    tuples ``(before, stamp, after)``: its clock reading before the ping
    (``None`` for :attr:`ExchangeShape.RENDEZVOUS`, which takes none), the
    pong's payload, and its reading once the pong is received.
    ``timestamp`` is a ``STAMPED`` initiator's one further reading after
    the point's last round (the SKaMPI timestamp), ``None`` for the other
    shapes.  Between two points the initiator computes for ``spacing``
    seconds as an :class:`ElapseCmd` would, the injector's
    ``perturb_compute`` included.  The responder gets ``None``.  Both
    sides read their *own* ``clock`` (the reference of HCA3 passes its
    global clock model), each read charging ``clock.read_overhead`` to
    the rank's time line.

    ``phase``, if given, is a ``(name, algorithm, ref, peer)`` descriptor:
    with a sink attached each side emits a ``PhaseBegin`` of it before a
    point's first leg and a ``PhaseEnd`` after its last (after the
    initiator's timestamp reading).

    Equivalent, message for message and event for event, to the rank
    program looping over the points and, within each, over
    ``read_clock``/``sendrecv``/``recv``/``send``/``ssend`` itself, minus
    the generator resumes between the legs.
    """

    peer: int
    tag: int
    n: int
    clock: "Clock"
    shape: ExchangeShape
    initiator: bool
    size: int = 8
    points: int = 1
    spacing: float = 0.0
    phase: tuple | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SimulationError(
                f"an exchange needs n >= 1 round trips, got {self.n}"
            )
        if self.points < 1:
            raise SimulationError(
                f"an exchange needs points >= 1, got {self.points}"
            )
        if self.spacing < 0:
            raise SimulationError("cannot elapse a negative duration")
        if self.size < 0:
            raise SimulationError(
                f"message size must be >= 0, got {self.size}"
            )
        if not isinstance(self.shape, ExchangeShape):
            raise SimulationError(
                f"shape must be an ExchangeShape, got {self.shape!r}"
            )


@dataclass(slots=True)
class ElapseCmd:
    """Consume ``duration`` seconds of local computation.

    Negative durations are rejected at construction (the engine's command
    loop no longer re-checks per execution).
    """

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimulationError("cannot elapse a negative duration")


@dataclass(slots=True)
class WaitUntilCmd:
    """Sleep until the given *true* time (no-op if already past)."""

    true_time: float


Command = (
    SendCmd | RecvCmd | SendRecvCmd | ExchangeCmd | ElapseCmd | WaitUntilCmd
)


class _Exchange:
    """A rank's progress through its active :class:`ExchangeCmd`."""

    __slots__ = ("cmd", "read", "overhead", "left", "points_left", "send",
                 "recv", "pinged", "before", "rounds", "points", "pause",
                 "phase")

    def __init__(self, cmd: ExchangeCmd, sink: EventSink | None) -> None:
        self.cmd = cmd
        #: The side's clock, resolved once for all of its reads.
        self.read = cmd.clock.read
        self.overhead = cmd.clock.read_overhead
        #: Round trips of the current point not yet started.
        self.left = cmd.n
        #: Points not yet started after the current one.
        self.points_left = cmd.points - 1
        peer, tag, size = cmd.peer, cmd.tag, cmd.size
        rendezvous = cmd.shape is _RENDEZVOUS
        # The leg commands, built once and re-issued every round (a
        # stamped leg gets its payload set just before it is issued).
        self.send: SendCmd | SendRecvCmd = (
            SendRecvCmd(peer, tag, 0.0, size, peer, tag)
            if cmd.initiator and not rendezvous
            else SendCmd(peer, tag, 0.0, size, rendezvous)
        )
        self.recv = RecvCmd(peer, tag)
        #: Initiator, rendezvous shape: the ping is out, the pong not yet
        #: asked for.
        self.pinged = False
        #: Initiator: the current round's reading before the ping.
        self.before: float | None = None
        #: Initiator: the current point's finished rounds, and the
        #: finished points, handed back at the end.
        self.rounds: list[tuple] | None = [] if cmd.initiator else None
        self.points: list[tuple] | None = [] if cmd.initiator else None
        #: Initiator: the compute between two points, issued as a leg.
        self.pause = (
            ElapseCmd(cmd.spacing)
            if cmd.initiator and cmd.spacing > 0.0 else None
        )
        #: The phase descriptor, when there is a sink to emit it to.
        self.phase = cmd.phase if sink is not None else None


class _Proc:
    """Engine-internal bookkeeping for one simulated process."""

    __slots__ = (
        "rank",
        "gen",
        "now",
        "blocked",
        "pending_value",
        "pending_cmd",
        "finished",
        "result",
        "seed",
        "_rng",
        "pool",
        "mailbox",
        "block_time",
        "exchange",
    )

    def __init__(self, rank: int, seed: np.random.SeedSequence) -> None:
        self.rank = rank
        self.gen: Generator[Command, Any, Any] | None = None
        self.now = 0.0
        #: The RecvCmd blocked on, the string "ssend" while waiting for a
        #: rendezvous ack, or None when runnable.
        self.blocked: RecvCmd | str | None = None
        self.pending_value: Any = None
        #: Command pulled from the generator but deferred by the causality
        #: gate (the process was ahead of the global event frontier).
        self.pending_cmd: Command | None = None
        self.finished = False
        self.result: Any = None
        #: Per-process child seed; ``rng``/``pool`` are materialized from
        #: it lazily (see :meth:`get_rng`), so ranks that never draw —
        #: common at large p — cost no generator construction at all.
        #: Laziness is invisible to results: seeding consumes no entropy,
        #: and each stream's bits depend only on this seed.
        self.seed = seed
        self._rng: np.random.Generator | None = None
        #: Chunked uniform pool feeding this process's message-delay
        #: draws; a dedicated stream (spawned from the same per-process
        #: seed) so pool prefetching never steals draws from ``rng``.
        #: Built on first send by the engine.
        self.pool: UniformPool | None = None
        #: Messages deposited for this rank, in send order.
        self.mailbox: list[Message] = []
        #: True time at which the process last blocked (diagnostics).
        self.block_time = 0.0
        #: The :class:`ExchangeCmd` in progress, stepped by the engine in
        #: place of resuming ``gen``; None otherwise.
        self.exchange: _Exchange | None = None

    def get_rng(self) -> np.random.Generator:
        """The algorithm-visible random stream, built on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self.seed)
        return rng


class Engine:
    """Event loop coordinating all simulated processes of one MPI job."""

    def __init__(
        self,
        network: NetworkModel,
        level_of: Callable[[int, int], Level],
        seed: int | np.random.SeedSequence = 0,
        max_true_time: float = 1e7,
        node_of: Callable[[int], int] | None = None,
        extra_node_latency: Callable[[int, int], float] | None = None,
        sink: EventSink | None = None,
        metrics: MetricsRegistry | None = None,
        timeseries: TimeSeriesBank | None = None,
        injector: "FaultInjector | None" = None,
        profiler: "Profiler | None" = None,
    ) -> None:
        self.network = network
        self.level_of = level_of
        #: Maps a rank to its node id; required for NIC-gap modelling.
        self.node_of = node_of or (lambda rank: 0)
        #: Fabric hook: extra one-way latency between two *nodes* (torus
        #: hop costs etc.); applied to REMOTE messages only.
        self.extra_node_latency = extra_node_latency
        #: Per-node NIC next-free times (egress and ingress serialization).
        self._nic_egress: dict[int, float] = {}
        self._nic_ingress: dict[int, float] = {}
        self.max_true_time = float(max_true_time)
        self._seedseq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._procs: list[_Proc] = []
        self._queue = None  # built in _run(), once num_ranks is known
        self._seq = 0  # event-queue tie-break counter
        self._msg_seq = 0  # message sequence numbers (send order)
        self._started = False
        #: Unfinished processes; the causality gate is skipped once only
        #: one process remains (no shared state left to keep causal).
        self._live = 0
        #: Ready list: ranks woken by a delivery or a rendezvous ack that
        #: have not run yet.  ``_run_proc`` runs them before it returns to
        #: the queue, and while one waits here every ordered command defers.
        self._woken: list[_Proc] = []
        #: Ordered commands deferred by the causality gate (each one is a
        #: queue round-trip).
        self.gate_deferrals = 0
        #: ``Communicator.split`` tables: the members' ``(color, key)``
        #: pairs, then their grouping, shared by the members of one split
        #: call; an entry lives from the first member's entry to the last
        #: member's exit (see :meth:`Communicator.split`).
        self.split_memo: dict[tuple[int, int, int], list] = {}
        #: ``rank -> node`` resolved once at run() (hot-path cache).
        self._node_cache: list[int] = []
        #: ``src * num_ranks + dest -> Level`` memo of ``level_of``
        #: (hot-path cache; int keys hash cheaper than rank tuples).
        self._level_cache: dict[int, Level] = {}
        self._rank_stride = 0  # num_ranks snapshot for level-cache keys
        #: ``(sink, metrics, timeseries, injector, profiler, fabric)`` as
        #: of run(): the per-message methods unpack it into locals, so a
        #: hook site costs one pointer comparison.
        self._hooks: tuple = (None,) * 6
        #: Optional observability hooks (see :mod:`repro.obs`).  Both are
        #: passive: they never draw randomness or advance virtual time.
        self.sink = sink
        self.metrics = metrics
        #: Optional clock-health telemetry bank (see
        #: :mod:`repro.obs.timeseries`); same passivity contract.
        self.timeseries = timeseries
        #: Optional fault injector (see :mod:`repro.faults`): perturbs
        #: delay draws, NIC gaps, and compute intervals at scheduled true
        #: times.  ``None`` keeps every hot path on its fault-free branch.
        self.injector = injector
        #: Optional wall-time self-profiler (see :mod:`repro.prof`).
        #: Profiling only reads the host clock — it never draws
        #: randomness or advances virtual time, so profiled runs are
        #: bit-identical to unprofiled ones.
        self.profiler = profiler
        #: Monotonically increasing count of delivered messages (stats).
        self.messages_delivered = 0
        #: Payload bytes of all delivered messages.
        self.bytes_delivered = 0
        #: Messages injected (sent), including ones still in flight.
        self.messages_sent = 0
        #: Payload bytes injected into the network.
        self.bytes_sent = 0
        #: Synchronous sends that had to park waiting for their match.
        self.rendezvous_stalls = 0
        #: Deepest mailbox (unmatched-message queue) seen during the run.
        self.max_mailbox_depth = 0
        #: Messages still sitting in mailboxes when the run completed
        #: (sent but never received; finalized at the end of run()).
        self.messages_unreceived = 0
        #: Events popped off the pending-event queue (one ``_run_proc``
        #: call each).  A rank run from the ready list is not one, so this
        #: can be below the message count (a serial ping-pong pops none).
        self.events_processed = 0
        #: Deepest pending-event queue seen during the run.
        self.max_queue_depth = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_processes(self, count: int) -> range:
        """Reserve ``count`` ranks and their RNG seeds; returns their range.

        Each process gets two independent streams spawned from its own
        child seed: ``rng`` (algorithm-visible randomness — poll slack,
        fault perturbations) and a pooled stream dedicated to message-
        delay draws.  Keeping them separate means pool prefetching can
        never shift draws seen by algorithm-level consumers.  Both are
        materialized lazily on first draw.  ``SeedSequence.spawn(k)``
        hands out the same children as k successive ``spawn(1)`` calls,
        so a rank's streams do not depend on how the ranks were batched.
        """
        if self._started:
            raise SimulationError("cannot add processes after run() started")
        if count < 0:
            raise SimulationError("process count must be >= 0")
        start = len(self._procs)
        children = self._seedseq.spawn(count)
        self._procs.extend(
            _Proc(start + i, child) for i, child in enumerate(children)
        )
        self._rank_stride = start + count
        return range(start, start + count)

    def bind(self, rank: int, gen: Generator[Command, Any, Any]) -> None:
        """Attach the generator body for a previously added rank."""
        proc = self._procs[rank]
        if proc.gen is not None:
            raise SimulationError(f"rank {rank} already has a body")
        proc.gen = gen

    @property
    def num_ranks(self) -> int:
        """Number of processes registered with the engine."""
        return len(self._procs)

    def proc_now(self, rank: int) -> float:
        """Current true time of a process (used by ProcessContext)."""
        return self._procs[rank].now

    def rng_of(self, rank: int) -> np.random.Generator:
        """The per-process random stream (deterministic per seed)."""
        return self._procs[rank].get_rng()

    def _pool_of(self, proc: _Proc) -> UniformPool:
        """Materialize a process's delay-draw pool on first send."""
        pool = proc.pool = UniformPool(
            np.random.default_rng(proc.seed.spawn(1)[0])
        )
        return pool

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def run(self) -> list[Any]:
        """Run every process to completion; returns per-rank return values."""
        if self._started:
            raise SimulationError("engine can only run once")
        self._started = True
        prof = self.profiler
        if prof is None:
            return self._run()
        start = prof.push("engine.run")
        try:
            return self._run()
        finally:
            prof.pop(start)

    def _make_queue(self) -> HeapQueue:
        return HeapQueue()

    def _run(self) -> list[Any]:
        sink = self.sink
        metrics = self.metrics
        bank = self.timeseries
        injector = self.injector
        if injector is not None:
            # The schedule is known a priori: emit one record per fault
            # so traces show fault windows at their exact virtual times.
            events = injector.schedule_events()
            if sink is not None:
                for event in events:
                    sink.emit(event)
            if metrics is not None and events:
                metrics.counter("faults.scheduled").inc(len(events))
            if bank is not None:
                # Fault markers anchor the resync-latency detector; they
                # are rank-agnostic (a fault hits a node/level, and the
                # error series of every rank may react to it).
                for event in events:
                    bank.mark(
                        "fault", event.time,
                        f"{event.kind}:{event.name}@{event.target}",
                    )
        self._hooks = (
            sink, metrics, bank, injector, self.profiler,
            self.extra_node_latency,
        )
        self._queue = queue = self._make_queue()
        procs = self._procs
        for proc in procs:
            if proc.gen is None:
                raise SimulationError(f"rank {proc.rank} has no body bound")
            self._schedule(proc, 0.0)
        # Resolve topology lookups once: placements are immutable, so the
        # rank->node and (src, dest)->level maps are pure functions.  The
        # node cache is a flat list; levels memoize lazily (only pairs
        # that actually communicate are materialized).
        self._node_cache = [self.node_of(rank) for rank in range(len(procs))]
        self._level_cache.clear()
        self._rank_stride = len(procs)
        self._live = len(procs)

        max_true_time = self.max_true_time
        pop = queue.pop
        events = 0
        max_depth = self.max_queue_depth
        try:
            while queue.size:
                t, _, rank = pop()
                events += 1
                depth = queue.size
                if depth > max_depth:
                    max_depth = depth
                if bank is not None and not events & 63:
                    # Event-queue pressure telemetry: sampled every 64
                    # pops so health reports can show queue depth next to
                    # NIC backlog without touching the per-event cost.
                    bank.sample(
                        "engine.events.queue_depth", t, float(depth)
                    )
                    bank.sample(
                        "engine.events.processed", t, float(events)
                    )
                proc = procs[rank]
                if proc.finished:
                    continue
                if t > max_true_time:
                    raise SimulationError(
                        f"simulation exceeded max_true_time={max_true_time}"
                    )
                if t > proc.now:
                    proc.now = t
                self._run_proc(proc)
        finally:
            self.events_processed += events
            self.max_queue_depth = max_depth

        states = {p.rank: (p.blocked, p.block_time) for p in procs if not p.finished}
        if states:
            # An attached sanitizer (see repro.check) can name the
            # blocked-wait cycle; without one the raw states must do.
            diagnose = getattr(sink, "deadlock_diagnosis", None)
            detail = f"\n{diagnose(self)}" if diagnose is not None else ""
            raise DeadlockError(
                f"deadlock: ranks {list(states)} blocked with states "
                f"{states}{detail}"
            )
        self.messages_unreceived = sum(len(p.mailbox) for p in procs)
        return [p.result for p in procs]

    def _schedule(self, proc: _Proc, time: float) -> None:
        seq = self._seq
        self._seq = seq + 1
        self._queue.push(time, seq, proc.rank)

    def _run_proc(self, proc: _Proc) -> None:
        """Step ``proc`` inline until it blocks, defers, or finishes, then
        each woken rank (last woken first) the same way: one call per event.

        Causality gate: an *ordered* command — the send of a ``SendCmd``
        or ``SendRecvCmd``, a ``RecvCmd`` from ``ANY_SOURCE`` — executes
        only while no other rank can act before it: the ready list is
        empty and the process is not ahead of the earliest pending event.
        Those are the commands that touch state shared between ranks (NIC
        tables, message sequence numbers, the order of a mailbox across
        sources, injector hooks), and the gate makes them happen in
        simulated-time order.  A gated command is stashed on the process
        and re-issued when the queue catches up.  A send that would be
        gated runs anyway if it is a hand-over (:meth:`_hand_over_level`:
        a node-local receiver already waiting for it, no stateful
        injector); the level found there goes on to ``_do_send`` instead
        of being looked up again.  An exchange's ping that is let through
        and finds its responder waiting hands over to the exchange loop
        (:meth:`_play_exchange`), which carries on until a leg would
        defer or the exchange ends.

        A ``RecvCmd`` from a named source, ``ElapseCmd`` and
        ``WaitUntilCmd`` are not gated.  The messages of one source sit
        in a mailbox in that source's program order whatever the
        interleaving, and finding one there or blocking and being woken
        by it both end at ``max(now, arrival) + o_recv``; the other two
        move the rank's own time line only.  (Under an injector with
        ``stateful_delays`` every receive is ordered: completing a
        rendezvous prices an ack through its delay hook.)  The horizon
        check applies to every command.
        """
        # Hot-loop locals: these attributes are stable across the run and
        # each dotted lookup costs a dict probe per command otherwise.
        # The queue frontier and the ready list are not (sends wake
        # peers), so both are re-read each iteration.
        queue = self._queue
        woken = self._woken
        nprocs = len(self._procs)
        horizon = self.max_true_time
        sink, _, _, injector, prof, _ = self._hooks
        # A receive that completes a rendezvous prices the ack through
        # the injector; if that hook keeps state, receives are ordered too
        # and no send is handed over.
        stateful = injector is not None and injector.stateful_delays
        # Ordinary attribute lookups: an instance-level patch of either
        # method (the sanitizer's mutant tests) intercepts the hot path.
        do_send = self._do_send
        finish = self._finish_delivery
        while True:
            send = proc.gen.send
            value = proc.pending_value
            proc.pending_value = None
            cmd: Command | None = proc.pending_cmd
            proc.pending_cmd = None
            proc.blocked = None
            # _live changes only when a rank finishes, which ends its run.
            gate = self._live > 1
            while True:
                if cmd is None:
                    exchange = proc.exchange
                    if exchange is not None:
                        # An exchange in progress: take its next leg in place
                        # of resuming the generator.  The leg then meets the
                        # gate below as the command the rank would have
                        # yielded at this point.  "engine.exchange" is that
                        # leg's bookkeeping, with its clock reads nested.
                        if prof is not None:
                            start = prof.push("engine.exchange")
                            cmd = self._exchange_leg(proc, exchange, value)
                            prof.pop(start)
                        else:
                            cmd = self._exchange_leg(proc, exchange, value)
                        value = None
                        if cmd is None:
                            proc.exchange = None
                            value = exchange.points
                if cmd is None:
                    # "proc.advance" is the inline execution of process code
                    # between two commands — the sync algorithms' compute
                    # (fitting, offset math, clock reads) lands here, with
                    # finer zones nested by those layers.
                    if prof is not None:
                        start = prof.push("proc.advance")
                    try:
                        cmd = send(value)
                    except StopIteration as stop:
                        proc.finished = True
                        proc.result = stop.value
                        self._live -= 1
                        break
                    finally:
                        if prof is not None:
                            prof.pop(start)
                    value = None
                    if type(cmd) is ExchangeCmd:
                        # Accepted without a gate check: this touches no
                        # shared state, and the legs are gated one by one.
                        proc.exchange = self._accept_exchange(proc, cmd)
                        cmd = None
                        continue
                cls = type(cmd)
                level = None
                if (
                    gate
                    and (
                        cls is SendCmd
                        or cls is SendRecvCmd
                        or (
                            cls is RecvCmd
                            and (stateful or cmd.source == ANY_SOURCE)
                        )
                    )
                    and (woken or proc.now > queue.frontier)
                ):
                    # An ordered command, and a woken rank or a pending event
                    # may act before it: defer until the queue catches up,
                    # unless it is a send its receiver is waiting for on this
                    # node (a hand-over; ``level`` is then the pair's level).
                    # With a single live process there is nobody left to
                    # observe shared state out of order, so the round-trip
                    # through the queue is skipped entirely.
                    if cls is not RecvCmd and not stateful:
                        level = self._hand_over_level(proc, cmd)
                    if level is None:
                        proc.pending_cmd = cmd
                        self.gate_deferrals += 1
                        self._schedule(proc, proc.now)
                        break
                if proc.now > horizon:
                    # A process that runs inline never goes through the queue,
                    # so the event loop's horizon check would never see it.
                    raise SimulationError(
                        f"simulation exceeded max_true_time={horizon}"
                    )
                if cls is SendCmd or cls is SendRecvCmd:
                    exchange = proc.exchange
                    if (
                        cls is SendRecvCmd
                        and exchange is not None
                        and not stateful
                        and cmd is exchange.send
                    ):
                        res = self._waiting_responder(proc, exchange)
                        if res is not None:
                            # The responder waits in its own exchange: the
                            # loop plays the round trips from this ping on.
                            if prof is not None:
                                start = prof.push("engine.exchange")
                                cmd = self._play_exchange(proc, res)
                                prof.pop(start)
                            else:
                                cmd = self._play_exchange(proc, res)
                            if cmd is None:
                                break
                            continue
                    if prof is not None:
                        start = prof.push("engine.send")
                        do_send(proc, cmd, level)
                        prof.pop(start)
                    else:
                        do_send(proc, cmd, level)
                    if cls is SendRecvCmd:
                        # Receive half: loop back with a synthesized RecvCmd
                        # so the causality gate is re-evaluated between the
                        # halves at exactly the point the unfused
                        # SendCmd/RecvCmd pair would have re-entered it (the
                        # send advanced proc.now).
                        cmd = RecvCmd(cmd.source, cmd.recv_tag)
                        continue
                    if cmd.synchronous:
                        # Sender parks until the receiver matches (rendezvous);
                        # _do_send marked it blocked, and has already released
                        # it again if the receiver was waiting.
                        break
                elif cls is RecvCmd:
                    start = prof.push("engine.recv") if prof is not None else 0
                    msg = self._match_mailbox(proc, cmd.source, cmd.tag)
                    if msg is None:
                        # Checked only here: a match comes from a valid rank.
                        source = cmd.source
                        if not 0 <= source < nprocs and source != ANY_SOURCE:
                            raise MatchingError(
                                f"receive from invalid rank {source}"
                            )
                        proc.blocked = cmd
                        proc.block_time = proc.now
                        if sink is not None:
                            sink.emit(ProcBlock(
                                proc.now, proc.rank, "recv", source, cmd.tag
                            ))
                        if prof is not None:
                            prof.pop(start)
                        break
                    if msg.arrival > proc.now:
                        proc.now = msg.arrival
                    value = finish(proc, msg)
                    if prof is not None:
                        prof.pop(start)
                elif cls is ElapseCmd:
                    # duration >= 0 is guaranteed by ElapseCmd construction.
                    duration = cmd.duration
                    if injector is not None and duration > 0.0:
                        # Straggler faults: compute runs slower in the window.
                        duration = injector.perturb_compute(
                            proc.now, proc.rank, duration, proc.get_rng()
                        )
                    proc.now += duration
                elif cls is WaitUntilCmd:
                    if cmd.true_time > proc.now:
                        proc.now = cmd.true_time
                else:
                    raise SimulationError(f"unknown command {cmd!r}")
                cmd = None
            if not woken:
                return
            proc = woken.pop()

    # ------------------------------------------------------------------
    # Clock reads and timestamped exchanges
    # ------------------------------------------------------------------
    def read_clock(self, rank: int, clock: "Clock") -> float:
        """Read ``clock`` for ``rank`` now, charging its read overhead
        (:meth:`ProcessContext.read_clock`; exchange legs call :meth:`_read`)."""
        return self._read(self._procs[rank], clock.read, clock.read_overhead)

    def _read(self, proc: _Proc, read: Callable, overhead: float) -> float:
        """The one clock-read body: charge ``overhead``, then ``read``."""
        prof = self.profiler
        t0 = prof.clock() if prof is not None else 0
        if overhead:
            proc.now += overhead
        value = read(proc.now)
        if prof is not None:
            # The hardware-clock/drift evaluation (segment-table walks,
            # quantization) as its own zone.
            prof.add("clock.read", prof.clock() - t0)
        return value

    def _accept_exchange(self, proc: _Proc, cmd: ExchangeCmd) -> _Exchange:
        """Check the peer, like ``_do_send`` does, before any leg runs."""
        peer = cmd.peer
        if not 0 <= peer < len(self._procs):
            raise MatchingError(f"exchange with invalid rank {peer}")
        if peer == proc.rank:
            raise MatchingError(f"rank {peer} cannot exchange with itself")
        return _Exchange(cmd, self._hooks[0])

    def _exchange_leg(
        self, proc: _Proc, exchange: _Exchange, value: Message | None
    ) -> SendCmd | RecvCmd | SendRecvCmd | ElapseCmd | None:
        """The next leg of ``proc``'s exchange, or None once it is over.

        ``value`` is what the previous leg handed back: the matched
        message after a receive, None after a send, after the pause
        between two points and at the start.  Clock reads and phase
        records happen here, between the legs, where the rank program
        took them; the pause is an :class:`ElapseCmd` leg.
        """
        cmd = exchange.cmd
        shape = cmd.shape
        if not cmd.initiator:
            if value is not None:
                # Ping received: answer it.
                pong = exchange.send
                if shape is not _TIMED:
                    pong.payload = self._read(
                        proc, exchange.read, exchange.overhead
                    )
                return pong
            if not exchange.left and self._end_point(proc, exchange):
                return None  # the last point's last pong is out
            if exchange.left == cmd.n and exchange.phase is not None:
                self._phase_begin(proc, exchange.phase)
            exchange.left -= 1
            return exchange.recv
        if value is not None:
            # Pong received: the round is complete.
            exchange.rounds.append((
                exchange.before, value.payload,
                self._read(proc, exchange.read, exchange.overhead),
            ))
            if not exchange.left:
                # And so is the point.
                if self._end_point(proc, exchange):
                    return None
                if exchange.pause is not None:
                    return exchange.pause
        elif exchange.pinged:
            # Rendezvous ping acknowledged: now wait for the pong.
            exchange.pinged = False
            return exchange.recv
        if exchange.left == cmd.n and exchange.phase is not None:
            self._phase_begin(proc, exchange.phase)
        exchange.left -= 1
        ping = exchange.send
        if shape is _RENDEZVOUS:
            exchange.pinged = True
        else:
            before = exchange.before = self._read(
                proc, exchange.read, exchange.overhead
            )
            if shape is _STAMPED:
                ping.payload = before
        return ping

    def _end_point(self, proc: _Proc, exchange: _Exchange) -> bool:
        """Close the side's current point: the initiator's timestamp
        reading (``STAMPED``) and the point handed back, then the phase
        end.  Returns True when it was the last point, else sets up the
        next one."""
        points = exchange.points
        if points is not None:
            points.append((
                exchange.rounds,
                self._read(proc, exchange.read, exchange.overhead)
                if exchange.cmd.shape is _STAMPED else None,
            ))
        if exchange.phase is not None:
            self._phase_end(proc, exchange.phase)
        if not exchange.points_left:
            return True
        exchange.points_left -= 1
        exchange.left = exchange.cmd.n
        if points is not None:
            exchange.rounds = []
        return False

    def _phase_begin(self, proc: _Proc, phase: tuple) -> None:
        name, algorithm, ref, peer = phase
        self._hooks[0].emit(PhaseBegin(
            proc.now, proc.rank, name, algorithm, "", -1, ref, peer,
        ))

    def _phase_end(self, proc: _Proc, phase: tuple) -> None:
        self._hooks[0].emit(PhaseEnd(proc.now, proc.rank, phase[0]))

    def _waiting_responder(
        self, proc: _Proc, exchange: _Exchange
    ) -> _Proc | None:
        """The responder of ``proc``'s exchange if the exchange loop may
        take over from the ping about to be sent, else None.

        It may when the responder is blocked on its own exchange's
        receive leg for this pair and tag, both sides have the same shape
        (``STAMPED`` or ``TIMED``: the ping is a ``SendRecvCmd``), the
        same ``n`` and the same numbers of rounds and points left, and no
        message from the responder on that tag waits in ``proc``'s
        mailbox (the pong would not be what the receive leg matches).
        The caller has ruled out an injector with ``stateful_delays``.
        """
        cmd = exchange.cmd
        res = self._procs[cmd.peer]
        rex = res.exchange
        if (
            rex is None
            or res.blocked is not rex.recv
            or rex.cmd.initiator
            or rex.cmd.peer != proc.rank
            or rex.cmd.tag != cmd.tag
            or rex.cmd.shape is not cmd.shape
            or rex.left != exchange.left
            or rex.points_left != exchange.points_left
            or rex.cmd.n != cmd.n
        ):
            return None
        peer, tag = res.rank, cmd.tag
        for msg in proc.mailbox:
            if msg.source == peer and msg.tag == tag:
                return None
        return res

    def _play_exchange(
        self, ini: _Proc, res: _Proc
    ) -> SendRecvCmd | None:
        """Play ``ini``'s round trips with ``res`` (see
        :meth:`_waiting_responder`) from the ping that just passed the
        gate, until the exchange ends or the gate would defer a leg.

        Each round takes the leg path's steps in its order: price the
        ping and wake the responder, the initiator's horizon check and
        block, the responder's stamp read, the pong's gate, price the
        pong and wake the initiator, the responder's next receive leg,
        the initiator's reads and the next ping's gate.  A point's last
        round carries on into the next point the same way: the
        responder's phase end and begin come before its receive leg, and
        the initiator's after-read is followed by its timestamp read,
        phase end, pause (horizon check, ``perturb_compute``), phase
        begin and before-read.  No third rank runs and nothing is
        scheduled meanwhile, so the queue frontier and the ready list are
        those of the gate that let the first ping through, and a gate
        test is one comparison: a leg to a waiting receiver defers only
        on a ``REMOTE`` pair (else it is a hand-over).  The state left
        behind is the leg path's at the same point: returns the next ping
        when it would defer (exit A, for ``_run_proc`` to defer), or None
        with the initiator blocked and the responder on the ready list,
        its pong pending (exit B), or both on the ready list, the
        responder on top, once the last point's last pong is delivered
        (exit C).
        """
        ex, rex = ini.exchange, res.exchange
        irank, rrank, tag = ini.rank, res.rank, ex.cmd.tag
        sink, _, _, injector, _, _ = self._hooks
        horizon = self.max_true_time
        busy = bool(self._woken)
        frontier = self._queue.frontier
        stamped = ex.cmd.shape is _STAMPED
        spacing = ex.cmd.spacing
        ping, pong = ex.send, rex.send
        up = self._route(ini, res, ex.cmd)
        up_gated = up[2] is _REMOTE
        # The pong's constants wait until a pong passes its gate: on a
        # busy REMOTE pair the first one often defers.
        down = None
        down_gated = self._level(rrank, irank) is _REMOTE
        leg = self._leg
        read = self._read
        iread, iover = ex.read, ex.overhead
        rread, rover = rex.read, rex.overhead
        while True:
            leg(ini, res, up, ping.payload)
            if ini.now > horizon:
                raise SimulationError(
                    f"simulation exceeded max_true_time={horizon}"
                )
            ini.blocked = ex.recv
            ini.block_time = ini.now
            if sink is not None:
                sink.emit(ProcBlock(ini.now, irank, "recv", rrank, tag))
            if stamped:
                pong.payload = read(res, rread, rover)
            if down_gated and (busy or res.now > frontier):
                res.pending_cmd = pong
                self._woken.append(res)
                return None  # (B)
            if res.now > horizon:
                raise SimulationError(
                    f"simulation exceeded max_true_time={horizon}"
                )
            if down is None:
                down = self._route(res, ini, rex.cmd)
            payload, arrival, seq, send_time = leg(
                res, ini, down, pong.payload
            )
            # Both sides count down in step, rounds and points alike.
            last = not rex.left
            if last:
                if not rex.points_left:
                    ini.pending_value = Message(
                        rrank, irank, tag, payload, rex.cmd.size,
                        send_time, arrival, seq,
                    )
                    self._woken.append(ini)
                    self._woken.append(res)
                    return None  # (C)
                self._end_point(res, rex)
                if rex.phase is not None:
                    self._phase_begin(res, rex.phase)
            rex.left -= 1
            if res.now > horizon:
                raise SimulationError(
                    f"simulation exceeded max_true_time={horizon}"
                )
            res.blocked = rex.recv
            res.block_time = res.now
            if sink is not None:
                sink.emit(ProcBlock(res.now, rrank, "recv", irank, tag))
            ex.rounds.append((ex.before, payload, read(ini, iread, iover)))
            if last:
                self._end_point(ini, ex)
                if spacing:
                    # The pause, as its ElapseCmd leg would run.
                    if ini.now > horizon:
                        raise SimulationError(
                            f"simulation exceeded max_true_time={horizon}"
                        )
                    duration = spacing
                    if injector is not None:
                        duration = injector.perturb_compute(
                            ini.now, irank, duration, ini.get_rng()
                        )
                    ini.now += duration
                if ex.phase is not None:
                    self._phase_begin(ini, ex.phase)
            ex.left -= 1
            before = ex.before = read(ini, iread, iover)
            if stamped:
                ping.payload = before
            if up_gated and (busy or ini.now > frontier):
                return ping  # (A)
            if ini.now > horizon:
                raise SimulationError(
                    f"simulation exceeded max_true_time={horizon}"
                )

    def _route(self, src: _Proc, dst: _Proc, cmd: ExchangeCmd) -> tuple:
        """One direction's constants for the exchange loop: ``(tag, size,
        level, link, fabric latency, delay pool)``."""
        level = self._level(src.rank, dst.rank)
        fabric = self._hooks[5]
        fab = 0.0
        if fabric is not None and level == _REMOTE:
            nodes = self._node_cache
            fab = fabric(nodes[src.rank], nodes[dst.rank])
        pool = src.pool
        if pool is None:
            pool = self._pool_of(src)
        size = cmd.size
        return cmd.tag, size, level, self.network.link(level, size), fab, pool

    def _leg(
        self, src: _Proc, dst: _Proc, route: tuple, payload: Any
    ) -> tuple[Any, float, int, float]:
        """One exchange-loop message to a ``dst`` blocked waiting for it:
        ``_do_send``'s accounting and records, :meth:`_price`, then the
        wake and ``_finish_delivery``'s accounting and records, without
        a :class:`Message`.  Returns the wire payload, arrival time,
        sequence number and send time."""
        tag, size, level, link, fab, pool = route
        sink, metrics, _, _, prof, _ = self._hooks
        start = prof.push("engine.send") if prof is not None else 0
        rank, dest_rank = src.rank, dst.rank
        send_time = src.now
        seq = self._msg_seq
        self._msg_seq = seq + 1
        self.messages_sent += 1
        self.bytes_sent += size
        if sink is not None:
            t0 = prof.clock() if prof is not None else 0
            sink.emit(MsgSend(
                send_time, rank, dest_rank, tag, size, seq,
                _LEVEL_NAMES[level], False,
            ))
            if prof is not None:
                prof.add("obs.sink", prof.clock() - t0)
        if metrics is not None:
            metrics.counter("engine.messages.sent", rank).inc()
            metrics.counter("engine.bytes.sent", rank).inc(size)
        arrival, payload = self._price(
            src, dest_rank, tag, payload, send_time, pool, level, link, fab
        )
        dst.blocked = None
        matched_at = dst.now
        if arrival > matched_at:
            matched_at = arrival
        if sink is not None:
            sink.emit(ProcWake(matched_at, dest_rank, "deliver", seq))
        now = dst.now = matched_at + self.network.o_recv
        self.messages_delivered += 1
        self.bytes_delivered += size
        if sink is not None:
            t0 = prof.clock() if prof is not None else 0
            sink.emit(MsgDeliver(
                now, dest_rank, rank, tag, size, seq, now - send_time,
                arrival, matched_at == arrival,
            ))
            if prof is not None:
                prof.add("obs.sink", prof.clock() - t0)
        if metrics is not None:
            metrics.counter("engine.messages.delivered", dest_rank).inc()
            metrics.counter("engine.bytes.delivered", dest_rank).inc(size)
        if prof is not None:
            prof.pop(start)
        return payload, arrival, seq, send_time

    # ------------------------------------------------------------------
    # Point-to-point mechanics
    # ------------------------------------------------------------------
    def _level(self, src: int, dest: int) -> Level:
        """The memoised ``level_of(src, dest)``."""
        pair = src * self._rank_stride + dest
        level = self._level_cache.get(pair)
        if level is None:
            level = self._level_cache[pair] = self.level_of(src, dest)
        return level

    def _hand_over_level(
        self, proc: _Proc, cmd: SendCmd | SendRecvCmd
    ) -> Level | None:
        """The pair's level if ``cmd`` is a hand-over, else None.

        A hand-over (see the module docstring for why it may skip the
        causality gate) is a send whose receiver is blocked on a receive
        that names this sender and accepts its tag, on a pair that is not
        ``REMOTE``; the caller has ruled out an injector with
        ``stateful_delays``.
        """
        dest = cmd.dest
        procs = self._procs
        if not 0 <= dest < len(procs):
            return None  # _do_send reports it once the gate lets it run
        waiting = procs[dest].blocked
        if (
            type(waiting) is not RecvCmd
            or waiting.source != proc.rank
            or (waiting.tag != cmd.tag and waiting.tag != ANY_TAG)
        ):
            return None
        level = self._level(proc.rank, dest)
        return None if level is _REMOTE else level

    def _do_send(
        self, proc: _Proc, cmd: SendCmd | SendRecvCmd, level: Level | None
    ) -> None:
        """Price one message and deposit it (or wake its receiver).

        The send path of every command but the exchange loop's legs.
        ``level`` is the pair's level when the caller has already looked
        it up (a hand-over), None otherwise.  A hook that is absent costs
        one test on a local per site.  The observers (sink, metrics, time
        series, profiler) never draw from the delay pool or touch
        simulation state, so attaching them leaves the run bit-identical;
        injector and fabric act only through the delays, gaps and
        payloads :meth:`_price` gets from them.
        """
        procs = self._procs
        rank = proc.rank
        dest_rank = cmd.dest
        if not 0 <= dest_rank < len(procs):
            raise MatchingError(f"send to invalid rank {dest_rank}")
        size = cmd.size
        synchronous = cmd.synchronous
        sink, metrics, _, _, prof, fabric = self._hooks
        pool = proc.pool
        if pool is None:
            pool = self._pool_of(proc)
        if level is None:
            level_cache = self._level_cache
            pair = rank * self._rank_stride + dest_rank
            level = level_cache.get(pair)
            if level is None:
                level = level_cache[pair] = self.level_of(rank, dest_rank)
        send_time = proc.now
        seq = self._msg_seq
        self._msg_seq = seq + 1
        self.messages_sent += 1
        self.bytes_sent += size
        if sink is not None:
            t0 = prof.clock() if prof is not None else 0
            sink.emit(MsgSend(
                send_time, rank, dest_rank, cmd.tag, size, seq,
                _LEVEL_NAMES[level], synchronous,
            ))
            if synchronous:
                sink.emit(ProcBlock(
                    send_time, rank, "ssend", dest_rank, cmd.tag
                ))
            if prof is not None:
                # Sink overhead (incl. an attached sanitizer behind a
                # TeeSink) accounted where it is paid.
                prof.add("obs.sink", prof.clock() - t0)
        if synchronous:
            self.rendezvous_stalls += 1
            proc.block_time = send_time
            # Before the receiver's wake below, so that a release by a
            # receiver that is already waiting is the last write.
            proc.blocked = "ssend"
        if metrics is not None:
            metrics.counter("engine.messages.sent", rank).inc()
            metrics.counter("engine.bytes.sent", rank).inc(size)
            if synchronous:
                metrics.counter("engine.rendezvous.stalls", rank).inc()
        fab = 0.0
        if fabric is not None and level == _REMOTE:
            nodes = self._node_cache
            fab = fabric(nodes[rank], nodes[dest_rank])
        arrival, payload = self._price(
            proc, dest_rank, cmd.tag, cmd.payload, send_time, pool, level,
            self.network.link(level, size), fab,
        )
        # Positional: keyword arguments triple the construction cost.
        msg = Message(
            rank, dest_rank, cmd.tag, payload, size, send_time, arrival, seq,
            proc if synchronous else None,
        )
        dest = procs[dest_rank]
        waiting = dest.blocked
        if (
            type(waiting) is RecvCmd
            and (waiting.source == rank or waiting.source == ANY_SOURCE)
            and (waiting.tag == msg.tag or waiting.tag == ANY_TAG)
        ):
            # Wake the receiver: it resumes once the message arrives, from
            # the ready list (no queue event; nothing ordered can run
            # before it does).
            dest.blocked = None
            resume_at = dest.now
            if arrival > resume_at:
                resume_at = arrival
            dest.now = resume_at
            if sink is not None:
                sink.emit(ProcWake(resume_at, dest_rank, "deliver", seq))
            dest.pending_value = self._finish_delivery(dest, msg)
            self._woken.append(dest)
        else:
            mailbox = dest.mailbox
            mailbox.append(msg)
            depth = len(mailbox)
            if depth > self.max_mailbox_depth:
                self.max_mailbox_depth = depth
            if metrics is not None:
                metrics.histogram("engine.mailbox.depth",
                                  dest_rank).observe(depth)

    def _price(
        self, proc: _Proc, dest_rank: int, tag: int, payload: Any,
        send_time: float, pool: UniformPool, level: Level,
        link: tuple[float, float, float, float], fab: float,
    ) -> tuple[float, Any]:
        """The one pricing body, behind ``_do_send`` and the exchange loop.

        Charges ``o_send`` to ``proc``, draws the delay on ``link``
        (:meth:`NetworkModel.link`) from ``pool``, applies the injector's
        delay hook, the fabric latency ``fab`` (0.0 unless the pair is
        ``REMOTE``), the NIC egress and ingress tables with congestion
        jitter (``REMOTE`` only; the tables price messages in global send
        order) and the injector's payload hook.  Returns the arrival time
        and the payload as it goes on the wire.
        """
        sink, metrics, bank, injector, prof, _ = self._hooks
        network = self.network
        rank = proc.rank
        now = proc.now = send_time + network.o_send
        t0 = prof.clock() if prof is not None else 0
        delay = draw_delay(link, pool)
        if injector is not None:
            # Link faults: windowed degradation of the delay draw (a
            # directed fault keys on this message's (src, dst) pair).
            delay = injector.perturb_delay(
                send_time, level, delay, proc.get_rng(),
                src=rank, dst=dest_rank,
            )
        if fab:
            delay += fab
        arrival = now + delay
        gap = network.nic_gap
        if level == _REMOTE and gap > 0.0:
            # Egress: messages leaving a node serialize at its NIC.
            nodes = self._node_cache
            src_node = nodes[rank]
            egress_gap = gap
            if injector is not None:
                # NIC storm faults: the serialization gap grows.
                egress_gap = gap * injector.nic_gap_factor(now, src_node)
            inject = self._nic_egress.get(src_node, 0.0)
            if now > inject:
                inject = now
            self._nic_egress[src_node] = inject + egress_gap
            # Congestion: delay variance grows with the backlog this
            # message found at the NIC (queueing, adaptive routing...).
            backlog = (inject - now) / egress_gap
            cj = network.congestion_jitter
            if cj > 0.0 and backlog > 0.0:
                delay += cj * backlog * -log1p(-pool.next())
            arrival = inject + egress_gap + delay
            # Ingress: arrivals at the destination node serialize too.
            dst_node = nodes[dest_rank]
            ingress_gap = gap
            if injector is not None:
                ingress_gap = gap * injector.nic_gap_factor(now, dst_node)
            ingress_free = self._nic_ingress.get(dst_node, 0.0)
            if ingress_free > arrival:
                arrival = ingress_free
            self._nic_ingress[dst_node] = arrival + ingress_gap
            if sink is not None and backlog > 0.0:
                sink.emit(NicQueue(send_time, rank, src_node, backlog, inject))
            if metrics is not None:
                metrics.histogram("engine.nic.backlog").observe(
                    max(0.0, backlog)
                )
            if bank is not None and backlog > 0.0:
                bank.sample(
                    "engine.nic.backlog", send_time, backlog, rank=rank
                )
        if prof is not None:
            # Delay draw + fault perturbation + NIC serialization model:
            # the per-message network pricing.
            prof.add("net.delay", prof.clock() - t0)
        if injector is not None and injector.perturbs_payloads:
            # Byzantine adversaries: the sender's wire payload may lie
            # (timestamp tampering at the sync-message boundary).  Only
            # adversarial injectors set the flag, so plain fault
            # schedules never pay for (or draw RNG in) this hook.
            payload = injector.perturb_payload(
                send_time, rank, dest_rank, tag, payload, proc.get_rng(),
            )
        return arrival, payload

    def _match_mailbox(self, proc: _Proc, source: int, tag: int) -> Message | None:
        mailbox = proc.mailbox
        if not mailbox:
            return None
        for i, msg in enumerate(mailbox):
            if (source == msg.source or source == ANY_SOURCE) and (
                tag == msg.tag or tag == ANY_TAG
            ):
                del mailbox[i]
                return msg
        return None

    def _finish_delivery(self, proc: _Proc, msg: Message) -> Message:
        """Charge receive overhead and release a rendezvous sender."""
        sink, metrics, _, injector, prof, _ = self._hooks
        network = self.network
        matched_at = proc.now
        proc.now = matched_at + network.o_recv
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        if sink is not None:
            t0 = prof.clock() if prof is not None else 0
            # ``waited`` is the binding-edge flag of the causal DAG: both
            # call paths assign (never compute past) the arrival when the
            # receiver had to wait for this message, so exact equality
            # with the pre-overhead time is reliable here.
            sink.emit(MsgDeliver(
                proc.now, proc.rank, msg.source, msg.tag, msg.size, msg.seq,
                proc.now - msg.send_time, msg.arrival,
                matched_at == msg.arrival,
            ))
            if prof is not None:
                prof.add("obs.sink", prof.clock() - t0)
        if metrics is not None:
            metrics.counter("engine.messages.delivered", proc.rank).inc()
            metrics.counter("engine.bytes.delivered",
                            proc.rank).inc(msg.size)
        sender = msg.sync_sender
        if sender is not None:
            # The ack travels back; the sender resumes after its arrival.
            level = self._level(msg.dest, msg.source)
            pool = proc.pool
            if pool is None:
                pool = self._pool_of(proc)
            t0 = prof.clock() if prof is not None else 0
            ack_delay = network.delay_from_pool(level, 8, pool)
            if injector is not None:
                # The ack travels receiver → original sender.
                ack_delay = injector.perturb_delay(
                    proc.now, level, ack_delay, proc.get_rng(),
                    src=msg.dest, dst=msg.source,
                )
            if prof is not None:
                prof.add("net.delay", prof.clock() - t0)
            resume_at = max(proc.now, msg.arrival) + ack_delay
            sender.now = max(sender.now, resume_at)
            sender.blocked = None
            if sink is not None:
                sink.emit(ProcWake(sender.now, sender.rank, "ack", msg.seq))
            if metrics is not None:
                metrics.histogram(
                    "engine.rendezvous.stall_time", sender.rank
                ).observe(sender.now - sender.block_time)
            self._woken.append(sender)
            msg.sync_sender = None
        return msg

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Snapshot of the engine's built-in counters.

        Always available (no sink or registry required); the counters are
        plain integer adds on paths the engine executes anyway, and they
        do not depend on which hooks are attached.
        """
        return {
            "num_ranks": len(self._procs),
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_unreceived": self.messages_unreceived,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "rendezvous_stalls": self.rendezvous_stalls,
            "max_mailbox_depth": self.max_mailbox_depth,
            "gate_deferrals": self.gate_deferrals,
            "events_processed": self.events_processed,
            "max_queue_depth": self.max_queue_depth,
        }
