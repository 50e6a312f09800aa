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


def _pairwise(
    comm: "Communicator", values: Sequence[Any], size: int, tag: int
) -> Generator[Any, Any, list[Any]]:
    """p-1 rounds; in round k exchange with ranks at ring distance k."""
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


def _bruck(
    comm: "Communicator", values: Sequence[Any], size: int, tag: int
) -> Generator[Any, Any, list[Any]]:
    """Bruck alltoall: ⌈log₂ p⌉ rounds of bulk shifted exchanges.

    Latency-optimal for small payloads at the cost of forwarding each
    datum up to log p times.  Data for destination d leaves rank r in
    round k iff bit k of ``(d - r) mod p`` is set.
    """
    rank, nprocs = comm.rank, comm.size
    # pending[d]: payload currently held here destined for rank d (the
    # initial local rotation of the classic algorithm is implicit).
    pending: dict[int, Any] = {
        d: values[d] for d in range(nprocs) if d != rank
    }
    out: list[Any] = [None] * nprocs
    out[rank] = values[rank]
    k = 1
    while k < nprocs:
        to = (rank + k) % nprocs
        frm = (rank - k) % nprocs
        block = {
            d: payload
            for d, payload in pending.items()
            if ((d - rank) % nprocs) & k
        }
        for d in block:
            del pending[d]
        msg = yield from comm.sendrecv_raw(
            to, tag, block, size * max(1, len(block)), source=frm
        )
        for d, payload in msg.payload.items():
            if d == rank:
                out[d] = payload
            else:
                pending[d] = payload
        k <<= 1
    # Everything pending must have been delivered by now.
    assert not pending, pending
    return out


ALLTOALL_ALGORITHMS = {
    "pairwise": _pairwise,
    "bruck": _bruck,
}


def alltoall(
    comm: "Communicator",
    values: Sequence[Any],
    size: int = 8,
    algorithm: str = "pairwise",
) -> Generator[Any, Any, list[Any]]:
    """Exchange ``values[i]`` with rank ``i``; returns the received list."""
    if len(values) != comm.size:
        raise CommunicatorError("alltoall needs one value per rank")
    try:
        impl = ALLTOALL_ALGORITHMS[algorithm]
    except KeyError:
        raise CommunicatorError(
            f"unknown alltoall algorithm {algorithm!r}; "
            f"choose from {sorted(ALLTOALL_ALGORITHMS)}"
        ) from None
    tag = comm.next_collective_tag()
    result = yield from impl(comm, values, size, tag)
    return result
