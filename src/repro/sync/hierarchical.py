"""HlHCA — the hierarchical clock-synchronization scheme (Section IV).

:class:`HierarchicalSync` chains an arbitrary number of levels, each level
being (communicator-builder, synchronization algorithm).  The paper's two
concrete realizations are provided as factories:

* :func:`h2hca` (Algorithm 4): inter-node level + intra-node level.  The
  recommended configuration uses HCA3 between node leaders and
  ClockPropSync inside each node.
* :func:`h3hca`: inter-node + intra-node-across-sockets + intra-socket,
  for machines whose sockets have distinct time sources.

Communicator creation is *included* in the synchronized region on purpose:
the paper measures it as part of the synchronization duration ("this
allows for a more realistic and fairer assessment").  Communicators are
cached as an attribute of the communicator they were split from (keyed
by the scheme instance, as a real implementation would with
``MPI_Comm_set_attr``), so repeated synchronizations reuse them and a
finished simulation takes them with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.simtime.base import Clock
from repro.sync.base import ClockSyncAlgorithm
from repro.sync.clockprop import ClockPropagationSync
from repro.sync.clocks import dummy_global_clock
from repro.sync.hca3 import HCA3Sync

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator

from repro.simmpi.comm import COMM_TYPE_SHARED, COMM_TYPE_SOCKET


class HierarchicalSync(ClockSyncAlgorithm):
    """Multi-level synchronization: one algorithm per architectural level.

    ``inter_node`` runs among node leaders (one process per node);
    ``intra_node`` runs within each node, its reference being the leader
    that was just synchronized.  With ``inter_socket`` set, the intra-node
    step is further split into a per-node socket-leader level and an
    intra-socket level (H3HCA).
    """

    name = "hlhca"

    def __init__(
        self,
        inter_node: ClockSyncAlgorithm,
        intra_node: ClockSyncAlgorithm | None = None,
        inter_socket: ClockSyncAlgorithm | None = None,
    ) -> None:
        self.inter_node = inter_node
        self.intra_node = intra_node or ClockPropagationSync()
        self.inter_socket = inter_socket

    def label(self) -> str:
        parts = ["Top", self.inter_node.label()]
        if self.inter_socket is not None:
            parts += ["Mid", self.inter_socket.label()]
        parts += ["Bottom", self.intra_node.label()]
        return "/".join(parts)

    # ------------------------------------------------------------------
    def _build_comms(self, comm: "Communicator") -> Generator:
        """Create the per-level communicators (collective; cached).

        The cache is an attribute of ``comm`` itself, so an algorithm
        instance reused across simulations (separate mpiruns) rebuilds
        rather than resurrecting communicators bound to a dead engine,
        and never keeps a finished engine alive.
        """
        cache = comm.attrs.get(self)
        if cache is not None:
            return cache
        cache = {}
        # Intra-node: MPI_COMM_TYPE_SHARED split.
        comm_intranode = yield from comm.split_type(COMM_TYPE_SHARED)
        cache["intranode"] = comm_intranode
        # Inter-node: leaders (intranode rank 0) only; others get None.
        leader_color = 0 if comm_intranode.rank == 0 else None
        comm_internode = yield from comm.split(leader_color, key=comm.rank)
        cache["internode"] = comm_internode
        if self.inter_socket is not None:
            # Intra-socket comm (hwloc socket detection equivalent).
            comm_intrasocket = yield from comm.split_type(COMM_TYPE_SOCKET)
            cache["intrasocket"] = comm_intrasocket
            # Socket leaders within a node: one process per socket.
            socket_leader = comm_intrasocket.rank == 0
            color = ("sockleaders", comm.ctx.node) if socket_leader else None
            comm_sockleaders = yield from comm.split(color, key=comm.rank)
            cache["sockleaders"] = comm_sockleaders
        comm.attrs[self] = cache
        return cache

    def sync_stats_summary(self) -> dict[str, dict[str, float]]:
        """Per-level round statistics, merged over the child algorithms.

        Levels are labelled ``internode``/``intersocket``/``intranode``
        (set on the children before each level runs), so the summary keys
        line up with the scheme's architecture.
        """
        out: dict[str, dict[str, float]] = {}
        for child in (self.inter_node, self.inter_socket, self.intra_node):
            if child is not None:
                out.update(child.sync_stats_summary())
        return out

    def sync_clocks(self, comm: "Communicator", clock: Clock) -> Generator:
        comms = yield from self._build_comms(comm)
        comm_internode = comms["internode"]
        # Step 1: synchronization between nodes (leaders only).
        global_clk: Clock = dummy_global_clock(clock)
        self.inter_node.stats_level = "internode"
        if comm_internode is not None and comm_internode.size > 1:
            global_clk = yield from self.inter_node.sync_clocks(
                comm_internode, clock
            )
        if self.inter_socket is None:
            # Step 2 (H2HCA): synchronization within each compute node.
            self.intra_node.stats_level = "intranode"
            comm_intranode = comms["intranode"]
            if comm_intranode.size > 1:
                global_clk = yield from self.intra_node.sync_clocks(
                    comm_intranode, global_clk
                )
            return global_clk
        # H3HCA: step 2 among socket leaders, step 3 within each socket.
        self.inter_socket.stats_level = "intersocket"
        comm_sockleaders = comms["sockleaders"]
        if comm_sockleaders is not None and comm_sockleaders.size > 1:
            global_clk = yield from self.inter_socket.sync_clocks(
                comm_sockleaders, global_clk
            )
        self.intra_node.stats_level = "intranode"
        comm_intrasocket = comms["intrasocket"]
        if comm_intrasocket.size > 1:
            global_clk = yield from self.intra_node.sync_clocks(
                comm_intrasocket, global_clk
            )
        return global_clk


def h2hca(
    nfitpoints: int = 30, fitpoint_spacing: float = 0.0
) -> HierarchicalSync:
    """The paper's H2HCA: HCA3 between nodes + ClockPropSync inside a node.

    Any other combination is a :class:`HierarchicalSync` built directly
    or from a label (:func:`~repro.sync.registry.algorithm_from_label`).
    """
    return HierarchicalSync(
        inter_node=HCA3Sync(
            nfitpoints=nfitpoints, fitpoint_spacing=fitpoint_spacing
        ),
        intra_node=ClockPropagationSync(),
    )


def h3hca(
    nfitpoints: int = 30, fitpoint_spacing: float = 0.0
) -> HierarchicalSync:
    """H3HCA: adds a socket-leader level for per-socket time sources."""
    return HierarchicalSync(
        inter_node=HCA3Sync(
            nfitpoints=nfitpoints, fitpoint_spacing=fitpoint_spacing
        ),
        intra_node=ClockPropagationSync(),
        inter_socket=HCA3Sync(
            nfitpoints=max(2, nfitpoints // 2),
            fitpoint_spacing=fitpoint_spacing,
        ),
    )
