"""``MPI_Alltoall``: pairwise-exchange algorithm.

Present for substrate completeness (the paper's motivation mentions tuning
``MPI_Alltoall`` for small payloads); the pairwise algorithm is Open MPI's
default for small messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.errors import CommunicatorError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def alltoall(
    comm: "Communicator",
    values: Sequence[Any],
    size: int = 8,
) -> Generator[Any, Any, list[Any]]:
    """Exchange ``values[i]`` with rank ``i``; returns the received list.

    p-1 rounds; in round k exchange with the ranks at ring distance k.
    """
    if len(values) != comm.size:
        raise CommunicatorError("alltoall needs one value per rank")
    tag = comm.next_collective_tag()
    rank, nprocs = comm.rank, comm.size
    out: list[Any] = [None] * nprocs
    out[rank] = values[rank]
    for k in range(1, nprocs):
        dest = (rank + k) % nprocs
        src = (rank - k) % nprocs
        msg = yield from comm.sendrecv_raw(
            dest, tag, values[dest], size, source=src
        )
        out[src] = msg.payload
    return out
