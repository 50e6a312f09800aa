"""``MPI_Allgather`` algorithm variants: ring, Bruck, neighbor exchange.

Communicator splitting exchanges its (color, key) pairs over the Bruck
variant, the logarithmic short-message path real MPI libraries take, so
that variant determines the communicator-creation overhead the paper
includes in the hierarchical schemes' measured durations.  Every variant
moves exactly ``p * (p - 1) * size`` bytes in total.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import CommunicatorError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def _ring(
    comm: "Communicator", value: Any, size: int, tag: int
) -> Generator[Any, Any, list[Any]]:
    """p-1 steps; in each step pass the most recently received block right."""
    rank, nprocs = comm.rank, comm.size
    out: list[Any] = [None] * nprocs
    out[rank] = value
    if nprocs == 1:
        return out
    right = (rank + 1) % nprocs
    left = (rank - 1) % nprocs
    carry = (rank, value)
    for _ in range(nprocs - 1):
        msg = yield from comm.sendrecv_raw(
            right, tag, carry, size, source=left
        )
        carry = msg.payload
        out[carry[0]] = carry[1]
    return out


def _bruck(
    comm: "Communicator", value: Any, size: int, tag: int
) -> Generator[Any, Any, list[Any]]:
    """ceil(log2 p) rounds with doubling block counts.

    ``blocks[i]`` belongs to rank ``(rank + i) % p``: a round at distance
    ``dist`` ships the first ``min(dist, p - dist)`` blocks (the last
    round of a non-power-of-two group needs only the remainder) and
    appends the same number from the peer; one rotation at the end puts
    the list in rank order.
    """
    rank, nprocs = comm.rank, comm.size
    blocks = [value]
    dist = 1
    while dist < nprocs:
        count = min(dist, nprocs - dist)
        msg = yield from comm.sendrecv_raw(
            (rank - dist) % nprocs, tag, blocks[:count], size * count,
            source=(rank + dist) % nprocs,
        )
        blocks += msg.payload
        dist <<= 1
    return blocks[nprocs - rank:] + blocks[:nprocs - rank]


def _neighbor_exchange(
    comm: "Communicator", value: Any, size: int, tag: int
) -> Generator[Any, Any, list[Any]]:
    """Open MPI's neighbor-exchange allgather (even process counts).

    p/2 rounds of pairwise exchanges with alternating left/right
    neighbours, each carrying a growing block (two entries per round after
    the first).  Falls back to the ring for odd process counts, as the
    real implementation does.
    """
    rank, nprocs = comm.rank, comm.size
    if nprocs == 1:
        return [value]
    if nprocs % 2 == 1:
        result = yield from _ring(comm, value, size, tag)
        return result
    out: dict[int, Any] = {rank: value}
    even = rank % 2 == 0
    right = (rank + 1) % nprocs
    left = (rank - 1) % nprocs
    # Round 0: exchange own value with the fixed partner.
    partner = right if even else left
    msg = yield from comm.sendrecv_raw(partner, tag, dict(out), size)
    out.update(msg.payload)
    # Remaining p/2 - 1 rounds alternate the other neighbour, forwarding
    # the two most recently learned entries.
    recent = dict(out)
    for step in range(nprocs // 2 - 1):
        if (step % 2 == 0) == even:
            partner = left
        else:
            partner = right
        msg = yield from comm.sendrecv_raw(
            partner, tag, recent, size * max(1, len(recent))
        )
        recent = msg.payload
        out.update(recent)
    return [out[r] for r in range(nprocs)]


ALLGATHER_ALGORITHMS = {
    "ring": _ring,
    "bruck": _bruck,
    "neighbor_exchange": _neighbor_exchange,
}


def allgather(
    comm: "Communicator",
    value: Any,
    size: int = 8,
    algorithm: str = "ring",
) -> Generator[Any, Any, list[Any]]:
    """Gather one value per rank; every rank returns the rank-ordered list."""
    try:
        impl = ALLGATHER_ALGORITHMS[algorithm]
    except KeyError:
        raise CommunicatorError(
            f"unknown allgather algorithm {algorithm!r}; "
            f"choose from {sorted(ALLGATHER_ALGORITHMS)}"
        ) from None
    tag = comm.next_collective_tag()
    result = yield from impl(comm, value, size, tag)
    return result
