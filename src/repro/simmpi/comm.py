"""Communicators: rank translation, tag spaces, splitting.

A :class:`Communicator` is a per-process view of a process group, exactly
like an ``MPI_Comm`` handle.  Ranks used in its API are *communicator
ranks*; translation to global (engine) ranks happens internally.

Tag isolation: every communicator owns a disjoint tag window of width
``TAG_STRIDE``; user tags occupy the lower half and collective operations
the upper half, keyed by a per-communicator collective sequence number.
Communicator ids are allocated by a per-process counter — since
communicator creation is collective and SPMD programs create communicators
in the same order on every process, the ids agree across the group (the
same argument MPI implementations use for context ids).

``split``/``split_type`` are implemented as real collectives (the
messages of an allgather of (color, key) pairs over the Bruck algorithm,
⌈log₂ p⌉ steps — the short-message path MPICH and Open MPI take) so that
communicator creation has a realistic, payload-dependent cost — the paper
deliberately includes this cost when measuring the hierarchical schemes
(Section IV-E).  The pairs themselves go through one engine-wide table
per call rather than in the messages, so host memory stays O(p) per
split where p members each holding p gathered pairs would be O(p²).
"""

from __future__ import annotations

import operator
from typing import Any, Generator, Hashable, Sequence

from repro.errors import CommunicatorError
from repro.obs.events import CollectiveEnter, CollectiveExit
from repro.simmpi.engine import ExchangeCmd, ExchangeShape, SendRecvCmd
from repro.simmpi.message import ANY_SOURCE, Message
from repro.simmpi.process import ProcessContext
from repro.simtime.base import Clock

#: Width of each communicator's tag window.
TAG_STRIDE = 1 << 20
#: User tags must be below this bound; collective tags sit above it.
MAX_USER_TAG = 1 << 19

#: ``MPI_COMM_TYPE_SHARED``: processes on the same compute node.
COMM_TYPE_SHARED = "shared"
#: Extension (hwloc-style): processes on the same socket.
COMM_TYPE_SOCKET = "socket"


def split_groups(
    infos: Sequence[tuple[Hashable, int]], parent_ranks: Sequence[int]
) -> tuple[dict[Hashable, tuple[int, ...]], list[int | None]]:
    """Group the gathered ``(color, key)`` pairs of one ``split`` call.

    ``infos[r]`` is parent rank ``r``'s pair and ``parent_ranks[r]`` its
    global rank.  Returns ``(groups, positions)``: ``groups[color]`` is
    that colour's global ranks ordered by ``(key, parent rank)`` and
    ``positions[r]`` is parent rank ``r``'s index in its group (``None``
    for a ``None`` colour).  A ``None`` slot (a member that never
    wrote its pair) raises :class:`CommunicatorError`.
    """
    keyed: dict[Hashable, list[tuple[int, int]]] = {}
    for rank, info in enumerate(infos):
        if info is None:
            raise CommunicatorError(
                f"split: parent rank {rank}'s (color, key) was never written"
            )
        color, key = info
        if color is not None:
            keyed.setdefault(color, []).append((key, rank))
    groups: dict[Hashable, tuple[int, ...]] = {}
    positions: list[int | None] = [None] * len(infos)
    for color, members in keyed.items():
        members.sort()
        groups[color] = tuple(parent_ranks[rank] for _, rank in members)
        for index, (_, rank) in enumerate(members):
            positions[rank] = index
    return groups, positions


class Communicator:
    """Per-process handle to an ordered group of global ranks."""

    def __init__(
        self,
        ctx: ProcessContext,
        ranks: Sequence[int],
        comm_id: int,
        comm_rank: int | None = None,
    ) -> None:
        """``comm_rank``, when given, is the caller's pre-computed index
        into ``ranks``; passing it skips the O(|ranks|) membership scan,
        which turns building p world communicators from O(p²) into O(p)
        (the :meth:`Simulation.world` fast path at thousands of ranks).
        """
        self.ctx = ctx
        self._ranks = tuple(ranks)
        self.comm_id = comm_id
        if comm_rank is None:
            if ctx.rank not in ranks:
                raise CommunicatorError(
                    f"process {ctx.rank} is not a member of group {ranks}"
                )
            comm_rank = self._ranks.index(ctx.rank)
        elif self._ranks[comm_rank] != ctx.rank:
            raise CommunicatorError(
                f"comm_rank {comm_rank} does not map to process "
                f"{ctx.rank} in group"
            )
        self.rank = comm_rank
        self.size = len(self._ranks)
        self._coll_seq = 0
        #: Attribute cache in the manner of ``MPI_Comm_set_attr``: a layer
        #: that derives state from this communicator (the hierarchical
        #: schemes' per-level communicators) keeps it here under its own
        #: key, so the state lives exactly as long as the handle does.
        self.attrs: dict[Hashable, Any] = {}

    # ------------------------------------------------------------------
    # Rank/tag translation
    # ------------------------------------------------------------------
    def global_rank(self, comm_rank: int) -> int:
        """Translate a communicator rank to the engine's global rank."""
        if not 0 <= comm_rank < self.size:
            raise CommunicatorError(
                f"rank {comm_rank} out of range for size-{self.size} comm"
            )
        return self._ranks[comm_rank]

    def _user_tag(self, tag: int) -> int:
        if not 0 <= tag < MAX_USER_TAG:
            raise CommunicatorError(f"user tag must be in [0, {MAX_USER_TAG})")
        return self.comm_id * TAG_STRIDE + tag

    def next_collective_tag(self) -> int:
        """Fresh tag for one collective call (consistent across members)."""
        tag = self.comm_id * TAG_STRIDE + MAX_USER_TAG + (
            self._coll_seq % MAX_USER_TAG
        )
        self._coll_seq += 1
        return tag

    # ------------------------------------------------------------------
    # Point-to-point in communicator-rank space
    # ------------------------------------------------------------------
    def send(self, dest: int, tag: int, payload: Any = None, size: int = 8):
        """Eager send to communicator rank ``dest`` with a user tag."""
        yield from self.ctx.send(
            self.global_rank(dest), self._user_tag(tag), payload, size
        )

    def ssend(self, dest: int, tag: int, payload: Any = None, size: int = 8):
        """Synchronous (rendezvous) send to communicator rank ``dest``."""
        yield from self.ctx.ssend(
            self.global_rank(dest), self._user_tag(tag), payload, size
        )

    def recv(self, source: int, tag: int) -> Generator[Any, Any, Message]:
        """Blocking receive from communicator rank ``source``."""
        msg = yield from self.ctx.recv(
            self.global_rank(source), self._user_tag(tag)
        )
        return msg

    def sendrecv(
        self,
        dest: int,
        send_tag: int,
        payload: Any = None,
        size: int = 8,
        source: int | None = None,
        recv_tag: int | None = None,
    ) -> Generator[Any, Any, Message]:
        """Send to ``dest`` then receive (defaults: same peer and tag).

        Yields the fused :class:`SendRecvCmd` directly rather than
        delegating through ``ctx.sendrecv``: the exchange is the hottest
        communication primitive (ring offset collection, recursive
        doubling), and each dropped generator frame is one fewer resume
        per message.  Bit-identical to the delegating form.
        """
        src = dest if source is None else source
        rtag = send_tag if recv_tag is None else recv_tag
        msg = yield SendRecvCmd(  # positional: see ProcessContext.send
            self.global_rank(dest), self._user_tag(send_tag), payload, size,
            self.global_rank(src), self._user_tag(rtag),
        )
        return msg

    def exchange(
        self,
        peer: int,
        tag: int,
        n: int,
        clock: Clock,
        shape: ExchangeShape,
        initiator: bool,
        size: int = 8,
    ) -> Generator[Any, Any, list[tuple] | None]:
        """This side of ``n`` timestamped ping-pongs with rank ``peer``.

        One :class:`ExchangeCmd`: the engine plays the round trips and
        reads ``clock`` between the legs.  The initiator gets the
        per-round ``(before, stamp, after)`` readings, the responder None.
        """
        rounds = yield ExchangeCmd(  # positional: see ProcessContext.send
            self.global_rank(peer), self._user_tag(tag), n, clock, shape,
            initiator, size,
        )
        return rounds

    # ------------------------------------------------------------------
    # Raw p2p for collective implementations (tag already fully qualified)
    # ------------------------------------------------------------------
    def send_raw(self, dest: int, tag: int, payload: Any = None,
                 size: int = 8):
        """Send with a pre-qualified tag (collective-internal use)."""
        yield from self.ctx.send(self.global_rank(dest), tag, payload, size)

    def recv_raw(
        self, source: int | None, tag: int
    ) -> Generator[Any, Any, Message]:
        """Receive with a pre-qualified tag; ``source=None`` = ANY_SOURCE."""
        gsrc = ANY_SOURCE if source is None else self.global_rank(source)
        msg = yield from self.ctx.recv(gsrc, tag)
        return msg

    def sendrecv_raw(
        self,
        dest: int,
        tag: int,
        payload: Any = None,
        size: int = 8,
        source: int | None = None,
    ) -> Generator[Any, Any, Message]:
        """``send_raw`` to ``dest`` then ``recv_raw`` from ``source``
        (default: ``dest``) on one pre-qualified tag, as one fused
        :class:`SendRecvCmd` — bit-identical to the pair, one generator
        resume and two frame chains cheaper per exchange.
        """
        gdest = self.global_rank(dest)
        msg = yield SendRecvCmd(  # positional: see ProcessContext.send
            gdest, tag, payload, size,
            gdest if source is None else self.global_rank(source), tag,
        )
        return msg

    # ------------------------------------------------------------------
    # Collectives (delegating to the algorithm modules)
    # ------------------------------------------------------------------
    def _obs_enter(self, name: str) -> None:
        """Emit a CollectiveEnter to the engine's sink (no-op without one)."""
        sink = self.ctx.engine.sink
        if sink is not None:
            sink.emit(CollectiveEnter(
                time=self.ctx.now, rank=self.ctx.rank, name=name,
                comm_id=self.comm_id, comm_rank=self.rank,
                comm_size=self.size,
            ))

    def _obs_exit(self, name: str) -> None:
        """Emit the matching CollectiveExit (no-op without a sink)."""
        sink = self.ctx.engine.sink
        if sink is not None:
            sink.emit(CollectiveExit(
                time=self.ctx.now, rank=self.ctx.rank, name=name,
                comm_id=self.comm_id, comm_rank=self.rank,
                comm_size=self.size,
            ))

    def barrier(self, algorithm: str = "tree"):
        """MPI_Barrier with a named algorithm (see BARRIER_ALGORITHMS)."""
        from repro.simmpi.collectives.barrier import barrier as _barrier

        self._obs_enter("MPI_Barrier")
        yield from _barrier(self, algorithm=algorithm)
        self._obs_exit("MPI_Barrier")

    def bcast(self, value: Any = None, root: int = 0, size: int = 8,
              algorithm: str = "binomial"):
        """MPI_Bcast: every rank returns the root's value."""
        from repro.simmpi.collectives.bcast import bcast as _bcast

        self._obs_enter("MPI_Bcast")
        result = yield from _bcast(
            self, value, root=root, size=size, algorithm=algorithm
        )
        self._obs_exit("MPI_Bcast")
        return result

    def reduce(self, value: Any, op=None, root: int = 0, size: int = 8):
        """MPI_Reduce: root returns op-combined value, others None."""
        from repro.simmpi.collectives.reduce import reduce as _reduce

        self._obs_enter("MPI_Reduce")
        result = yield from _reduce(self, value, op=op, root=root, size=size)
        self._obs_exit("MPI_Reduce")
        return result

    def allreduce(self, value: Any, op=None, size: int = 8,
                  algorithm: str = "recursive_doubling"):
        """MPI_Allreduce: every rank returns the op-combined value."""
        from repro.simmpi.collectives.allreduce import allreduce as _allreduce

        self._obs_enter("MPI_Allreduce")
        result = yield from _allreduce(
            self, value, op=op, size=size, algorithm=algorithm
        )
        self._obs_exit("MPI_Allreduce")
        return result

    def gather(self, value: Any, root: int = 0, size: int = 8):
        """MPI_Gather: root returns the rank-ordered list, others None."""
        from repro.simmpi.collectives.gather import gather as _gather

        self._obs_enter("MPI_Gather")
        result = yield from _gather(self, value, root=root, size=size)
        self._obs_exit("MPI_Gather")
        return result

    def scatter(self, values: Sequence[Any] | None = None, root: int = 0,
                size: int = 8):
        """MPI_Scatter: every rank returns its block of root's values."""
        from repro.simmpi.collectives.scatter import scatter as _scatter

        self._obs_enter("MPI_Scatter")
        result = yield from _scatter(self, values, root=root, size=size)
        self._obs_exit("MPI_Scatter")
        return result

    def allgather(self, value: Any, size: int = 8):
        """MPI_Allgather: every rank returns the rank-ordered list."""
        from repro.simmpi.collectives.allgather import allgather as _allgather

        self._obs_enter("MPI_Allgather")
        result = yield from _allgather(self, value, size=size)
        self._obs_exit("MPI_Allgather")
        return result

    def alltoall(self, values: Sequence[Any], size: int = 8):
        """MPI_Alltoall: exchange values[i] with rank i."""
        from repro.simmpi.collectives.alltoall import alltoall as _alltoall

        self._obs_enter("MPI_Alltoall")
        result = yield from _alltoall(self, values, size=size)
        self._obs_exit("MPI_Alltoall")
        return result

    # ------------------------------------------------------------------
    # Communicator construction
    # ------------------------------------------------------------------
    def _alloc_comm_id(self) -> int:
        counter = self.ctx._comm_id_counter
        self.ctx._comm_id_counter = counter + 1
        return counter

    def dup(self) -> Generator[Any, Any, "Communicator"]:
        """Collective duplicate (synchronizes via a barrier, like MPI)."""
        new_id = self._alloc_comm_id()
        yield from self.barrier(algorithm="tree")
        return Communicator(self.ctx, self._ranks, new_id, self.rank)

    def split(
        self, color: Hashable, key: int | None = None
    ) -> Generator[Any, Any, "Communicator | None"]:
        """Collective split by ``color``; ``None`` color → no new comm.

        On the wire this is the Bruck allgather of 16-byte ``(color,
        key)`` pairs, so the cost of communicator creation appears in
        measured synchronization durations.  The pairs themselves travel
        through the engine instead: each member writes its own into the
        call's ``Engine.split_memo`` table before it sends, and the
        messages carry sizes only.  By Bruck's dissemination property no
        member finishes before every member has sent, so the table is
        full when the first member to finish groups it, once, for all:
        O(p) host memory and work per split, not O(p) per member.

        A colour must be hashable and a key an integer; a bad one raises
        :class:`CommunicatorError` on the rank that passed it, before any
        message is sent.
        """
        try:
            hash(color)
        except TypeError:
            raise CommunicatorError(
                f"rank {self.rank}: split colour {color!r} is not hashable"
            ) from None
        if key is None:
            key = self.rank
        else:
            try:
                key = operator.index(key)
            except TypeError:
                raise CommunicatorError(
                    f"rank {self.rank}: split key {key!r} is not an integer"
                ) from None
        from repro.simmpi.collectives.allgather import bruck_sized_rounds

        # (first member, comm id) names this communicator within the
        # simulation — no process holds two communicators with one id —
        # and the sequence number names this call on it.
        memo_key = (self._ranks[0], self.comm_id, self._coll_seq)
        memo = self.ctx.engine.split_memo
        entry = memo.get(memo_key)
        if entry is None:
            # [pairs by parent rank, grouping, members still to finish]
            entry = memo[memo_key] = [[None] * self.size, None, self.size]
        entry[0][self.rank] = (color, key)
        self._obs_enter("MPI_Allgather")
        yield from bruck_sized_rounds(self, 16, self.next_collective_tag())
        self._obs_exit("MPI_Allgather")
        new_id = self._alloc_comm_id()
        grouping = entry[1]
        if grouping is None:
            grouping = entry[1] = split_groups(entry[0], self._ranks)
            entry[0] = None
        entry[2] -= 1
        if not entry[2]:
            del memo[memo_key]
        if color is None:
            return None
        groups, positions = grouping
        return Communicator(
            self.ctx, groups[color], new_id, comm_rank=positions[self.rank]
        )

    def split_type(
        self, split_kind: str, key: int | None = None
    ) -> Generator[Any, Any, "Communicator | None"]:
        """``MPI_Comm_split_type``: group by shared node or socket."""
        if split_kind == COMM_TYPE_SHARED:
            color: Hashable = ("node", self.ctx.node)
        elif split_kind == COMM_TYPE_SOCKET:
            color = ("socket", self.ctx.node, self.ctx.socket)
        else:
            raise CommunicatorError(f"unknown split type {split_kind!r}")
        comm = yield from self.split(color, key)
        return comm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Communicator(id={self.comm_id}, rank={self.rank}/{self.size})"
        )
