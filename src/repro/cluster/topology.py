"""Machine topology: nodes, sockets, cores, and rank placement.

This plays the role hwloc + the MPI process mapper play on a real system:
it answers "which node/socket/core does rank r run on?" and "how far apart
are ranks a and b?".  The hierarchical synchronization schemes (HlHCA)
query it to build their per-level communicators, and the network model uses
the pairwise :class:`~repro.simmpi.network.Level` to pick link parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi.network import Level


@dataclass(frozen=True)
class Placement:
    """Where one rank lives in the machine."""

    rank: int
    node: int
    socket: int
    core: int


class Machine:
    """A cluster of identical SMP nodes with block rank placement.

    Ranks are placed node-major, then socket-major, then core — the default
    "by core, pinned" mapping the paper uses (one rank per core, processes
    pinned).  ``sockets_per_node`` × ``cores_per_socket`` gives cores (and
    hence ranks) per node.
    """

    def __init__(
        self,
        num_nodes: int,
        sockets_per_node: int = 2,
        cores_per_socket: int = 8,
        ranks_per_node: int | None = None,
        name: str = "machine",
    ) -> None:
        if num_nodes <= 0 or sockets_per_node <= 0 or cores_per_socket <= 0:
            raise ValueError("all topology extents must be positive")
        self.num_nodes = num_nodes
        self.sockets_per_node = sockets_per_node
        self.cores_per_socket = cores_per_socket
        self.cores_per_node = sockets_per_node * cores_per_socket
        if ranks_per_node is None:
            ranks_per_node = self.cores_per_node
        if not 1 <= ranks_per_node <= self.cores_per_node:
            raise ValueError(
                f"ranks_per_node must be in [1, {self.cores_per_node}]"
            )
        self.ranks_per_node = ranks_per_node
        self.name = name
        #: Memoized per-rank placements, built on first lookup.  Placement
        #: is queried per (rank, message) in hot setup paths — the level
        #: map, NIC node lookups, clock-domain keys — so the divmod pair
        #: is paid once per rank, not per query.
        self._placements: list[Placement] | None = None

    @property
    def num_ranks(self) -> int:
        return self.num_nodes * self.ranks_per_node

    def placement(self, rank: int) -> Placement:
        """Node/socket/core of a rank (block placement, round-robin cores)."""
        placements = self._placements
        if placements is None:
            placements = self._placements = [
                self._compute_placement(r) for r in range(self.num_ranks)
            ]
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")
        return placements[rank]

    def _compute_placement(self, rank: int) -> Placement:
        node, local = divmod(rank, self.ranks_per_node)
        socket, core = divmod(local, self.cores_per_socket)
        # With fewer ranks than cores, ranks fill socket 0 first (pinned to
        # the first cores), matching the paper's "pinned to the first core
        # of a compute node" setup for the drift experiments.
        return Placement(rank=rank, node=node, socket=socket, core=core)

    def level_between(self, a: int, b: int) -> Level:
        """Topological distance class between two ranks.

        Computed arithmetically from the block placement rather than via
        :meth:`placement`: the engine fills its pairwise level cache
        through here (p·log p distinct pairs for the doubling patterns),
        and two divmods beat four attribute loads on frozen dataclasses.
        """
        n = self.num_ranks
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"rank pair ({a}, {b}) out of range")
        rpn = self.ranks_per_node
        node_a, local_a = divmod(a, rpn)
        node_b, local_b = divmod(b, rpn)
        if node_a != node_b:
            return Level.REMOTE
        cps = self.cores_per_socket
        if local_a // cps != local_b // cps:
            return Level.NODE
        if local_a != local_b:
            return Level.SOCKET
        return Level.SELF

    def node_of(self, rank: int) -> int:
        return self.placement(rank).node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name!r}, nodes={self.num_nodes}, "
            f"sockets={self.sockets_per_node}, "
            f"cores/socket={self.cores_per_socket}, "
            f"ranks/node={self.ranks_per_node})"
        )
