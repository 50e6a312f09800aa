"""``MPI_Bcast`` algorithm variants: binomial tree and scatter + allgather."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import CommunicatorError
from repro.simmpi.collectives._tree import binomial_children, binomial_parent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def _binomial(
    comm: "Communicator", value: Any, root: int, size: int, tag: int
) -> Generator[Any, Any, Any]:
    """Classic binomial broadcast: O(log p) depth, each hop one message."""
    rank, nprocs = comm.rank, comm.size
    relative = (rank - root) % nprocs
    parent = binomial_parent(relative, nprocs)
    if parent is not None:
        msg = yield from comm.recv_raw((parent + root) % nprocs, tag)
        value = msg.payload
    for child in binomial_children(relative, nprocs):
        yield from comm.send_raw((child + root) % nprocs, tag, value, size)
    return value


def _scatter_allgather(
    comm: "Communicator", value: Any, root: int, size: int, tag: int
) -> Generator[Any, Any, Any]:
    """Van de Geijn bcast: binomial scatter of segments + ring allgather.

    Bandwidth-optimal for large payloads: each link carries ~2×size/p
    bytes instead of the full message.  Payload semantics: the value is
    logically split into ``p`` segments; each rank receives its segment
    during the scatter and the allgather reassembles the full value.
    """
    from repro.simmpi.collectives.allgather import allgather as _allgather
    from repro.simmpi.collectives.scatter import scatter as _scatter

    nprocs = comm.size
    if nprocs == 1:
        return value
    segment_size = max(1, size // nprocs)
    segments = (
        [(i, value) for i in range(nprocs)] if comm.rank == root else None
    )
    my_segment = yield from _scatter(
        comm, segments, root=root, size=segment_size
    )
    pieces = yield from _allgather(comm, my_segment, size=segment_size)
    # Any piece carries the broadcast value (piece = (segment_idx, value)).
    return pieces[0][1]


BCAST_ALGORITHMS = {
    "binomial": _binomial,
    "scatter_allgather": _scatter_allgather,
}


def bcast(
    comm: "Communicator",
    value: Any = None,
    root: int = 0,
    size: int = 8,
    algorithm: str = "binomial",
) -> Generator[Any, Any, Any]:
    """Broadcast ``value`` from ``root``; every rank returns the value."""
    if not 0 <= root < comm.size:
        raise CommunicatorError(f"invalid bcast root {root}")
    try:
        impl = BCAST_ALGORITHMS[algorithm]
    except KeyError:
        raise CommunicatorError(
            f"unknown bcast algorithm {algorithm!r}; "
            f"choose from {sorted(BCAST_ALGORITHMS)}"
        ) from None
    tag = comm.next_collective_tag()
    result = yield from impl(comm, value, root, size, tag)
    return result
