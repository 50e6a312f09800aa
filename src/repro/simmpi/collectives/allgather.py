"""``MPI_Allgather`` algorithm variants: ring, Bruck, neighbor exchange.

Communicator splitting plays the Bruck variant's rounds
(:func:`bruck_sized_rounds`: sizes, no blocks), the logarithmic
short-message path real MPI libraries take, so that variant determines
the communicator-creation overhead the paper includes in the
hierarchical schemes' measured durations.  Every variant
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


def _bruck_schedule(rank: int, nprocs: int):
    """Yield ``(dest, source, count)`` for each of ``rank``'s Bruck rounds.

    ceil(log2 p) rounds at doubling distance ``dist``: send to
    ``rank - dist``, receive from ``rank + dist``, ``count`` blocks each
    way, ``min(dist, p - dist)`` (the last round of a non-power-of-two
    group needs only the remainder).
    """
    dist = 1
    while dist < nprocs:
        yield (
            (rank - dist) % nprocs, (rank + dist) % nprocs,
            min(dist, nprocs - dist),
        )
        dist <<= 1


def _bruck(
    comm: "Communicator", value: Any, size: int, tag: int
) -> Generator[Any, Any, list[Any]]:
    """ceil(log2 p) rounds with doubling block counts.

    ``blocks[i]`` belongs to rank ``(rank + i) % p``: each round ships
    the first ``count`` blocks and appends the same number from the
    peer; one rotation at the end puts the list in rank order.
    """
    rank, nprocs = comm.rank, comm.size
    blocks = [value]
    for dest, source, count in _bruck_schedule(rank, nprocs):
        msg = yield from comm.sendrecv_raw(
            dest, tag, blocks[:count], size * count, source=source
        )
        blocks += msg.payload
    return blocks[nprocs - rank:] + blocks[:nprocs - rank]


def bruck_sized_rounds(
    comm: "Communicator", size: int, tag: int
) -> Generator[Any, Any, None]:
    """Bruck's rounds with sizes and no blocks.

    The same messages as :func:`_bruck` (peers, tag, ``size * count``
    bytes, order) with ``payload=None``, so the simulated cost is the
    Bruck allgather's while no member holds the gathered list.
    ``Communicator.split`` exchanges its table through the engine and
    plays only this wire cost.
    """
    for dest, source, count in _bruck_schedule(comm.rank, comm.size):
        yield from comm.sendrecv_raw(
            dest, tag, None, size * count, source=source
        )


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
