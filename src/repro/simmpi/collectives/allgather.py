"""``MPI_Allgather``: the ring algorithm, plus Bruck's rounds for splits.

Communicator splitting plays the Bruck allgather's rounds
(:func:`bruck_sized_rounds`: sizes, no blocks), the logarithmic
short-message path real MPI libraries take, so that schedule determines
the communicator-creation overhead the paper includes in the
hierarchical schemes' measured durations.  Both move exactly
``p * (p - 1) * size`` bytes in total.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def bruck_sized_rounds(
    comm: "Communicator", size: int, tag: int
) -> Generator[Any, Any, None]:
    """The Bruck allgather's rounds with sizes and no blocks.

    ceil(log2 p) rounds at doubling distance ``dist``: send to
    ``rank - dist``, receive from ``rank + dist``, ``min(dist, p - dist)``
    blocks of ``size`` bytes each way (the last round of a
    non-power-of-two group needs only the remainder).  Messages carry
    ``payload=None``, so the simulated cost is the Bruck allgather's
    while no member holds the gathered list.  ``Communicator.split``
    exchanges its table through the engine and plays only this wire
    cost.
    """
    rank, nprocs = comm.rank, comm.size
    dist = 1
    while dist < nprocs:
        yield from comm.sendrecv_raw(
            (rank - dist) % nprocs, tag, None,
            size * min(dist, nprocs - dist), source=(rank + dist) % nprocs,
        )
        dist <<= 1


def allgather(
    comm: "Communicator",
    value: Any,
    size: int = 8,
) -> Generator[Any, Any, list[Any]]:
    """Gather one value per rank; every rank returns the rank-ordered list.

    p-1 steps; in each step pass the most recently received block right.
    """
    tag = comm.next_collective_tag()
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
