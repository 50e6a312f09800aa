"""``MPI_Allreduce`` algorithm variants.

The paper's Figs. 7 and 9 measure ``MPI_Allreduce`` for payloads of
4–1024 B.  Open MPI's tuned component picks ``recursive_doubling`` for such
small messages; ``ring`` (reduce-scatter + allgather) and ``reduce_bcast``
are provided as the classic alternatives a tuner would compare.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.errors import CommunicatorError
from repro.simmpi.collectives._tree import highest_power_of_two_below

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def _recursive_doubling(
    comm: "Communicator",
    value: Any,
    op: Callable[[Any, Any], Any],
    size: int,
    tag: int,
) -> Generator[Any, Any, Any]:
    """Pairwise exchange with the standard non-power-of-two fold."""
    rank, nprocs = comm.rank, comm.size
    if nprocs == 1:
        return value
    m = highest_power_of_two_below(nprocs)
    rem = nprocs - m
    acc = value
    if rank >= m:
        # Surplus ranks contribute their value, then wait for the result.
        msg = yield from comm.sendrecv_raw(rank - m, tag, acc, size)
        return msg.payload
    if rank < rem:
        msg = yield from comm.recv_raw(rank + m, tag)
        acc = op(acc, msg.payload)
    mask = 1
    while mask < m:
        partner = rank ^ mask
        msg = yield from comm.sendrecv_raw(partner, tag, acc, size)
        acc = op(acc, msg.payload)
        mask <<= 1
    if rank < rem:
        yield from comm.send_raw(rank + m, tag, acc, size)
    return acc


def _ring(
    comm: "Communicator",
    value: Any,
    op: Callable[[Any, Any], Any],
    size: int,
    tag: int,
) -> Generator[Any, Any, Any]:
    """Reduce-scatter + allgather around a ring, ``size/p``-byte chunks.

    Chunk ``j`` logically holds the whole (scalar) payload; after the
    reduce-scatter phase rank ``r`` owns the fully reduced chunk
    ``(r + 1) % p``, and the allgather phase circulates the reduced chunks.
    """
    rank, nprocs = comm.rank, comm.size
    if nprocs == 1:
        return value
    right = (rank + 1) % nprocs
    left = (rank - 1) % nprocs
    chunk_bytes = max(1, size // nprocs)
    # partials[j]: accumulated value for chunk j as it passes through us.
    partials: dict[int, Any] = {rank: value}
    # Reduce-scatter: in step s we forward chunk (rank - s) mod p.
    for step in range(nprocs - 1):
        send_chunk = (rank - step) % nprocs
        msg = yield from comm.sendrecv_raw(
            right, tag, (send_chunk, partials[send_chunk]), chunk_bytes,
            source=left,
        )
        chunk, partial = msg.payload
        # The received chunk accumulates OUR value before moving on.
        partials[chunk] = op(partial, value)
    reduced_chunk = (rank + 1) % nprocs
    result = partials[reduced_chunk]
    # Allgather: circulate the reduced chunks; every rank sees the result.
    carry = (reduced_chunk, result)
    for _ in range(nprocs - 1):
        msg = yield from comm.sendrecv_raw(
            right, tag, carry, chunk_bytes, source=left
        )
        carry = msg.payload
    return result


def _reduce_bcast(
    comm: "Communicator",
    value: Any,
    op: Callable[[Any, Any], Any],
    size: int,
    tag: int,
) -> Generator[Any, Any, Any]:
    """Binomial reduce to rank 0 followed by binomial broadcast."""
    from repro.simmpi.collectives.bcast import bcast as _bcast
    from repro.simmpi.collectives.reduce import reduce as _reduce

    total = yield from _reduce(comm, value, op=op, root=0, size=size)
    result = yield from _bcast(
        comm, total, root=0, size=size, algorithm="binomial"
    )
    return result


def _rabenseifner(
    comm: "Communicator",
    value: Any,
    op: Callable[[Any, Any], Any],
    size: int,
    tag: int,
) -> Generator[Any, Any, Any]:
    """Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
    allgather.  Bandwidth-optimal for large payloads: message sizes halve
    (then double) each round instead of staying full-size.

    Payload semantics follow the scalar-chunk convention of :func:`_ring`:
    every exchanged block logically covers the whole scalar, so partials
    combine with ``op`` directly.
    """
    rank, nprocs = comm.rank, comm.size
    if nprocs == 1:
        return value
    m = highest_power_of_two_below(nprocs)
    rem = nprocs - m
    acc = value
    # Fold the non-power-of-two remainder into the core, as in _recursive_doubling.
    if rank >= m:
        msg = yield from comm.sendrecv_raw(rank - m, tag, acc, size)
        return msg.payload
    if rank < rem:
        msg = yield from comm.recv_raw(rank + m, tag)
        acc = op(acc, msg.payload)
    # Reduce-scatter phase: distance doubles, message size halves.
    mask = 1
    block = size
    while mask < m:
        partner = rank ^ mask
        block = max(1, block // 2)
        msg = yield from comm.sendrecv_raw(partner, tag, acc, block)
        acc = op(acc, msg.payload)
        mask <<= 1
    # Allgather phase: distance halves, message size doubles.
    mask = m >> 1
    while mask > 0:
        partner = rank ^ mask
        yield from comm.sendrecv_raw(partner, tag, acc, block)
        # Blocks are fully reduced by now; keep ours (scalar convention:
        # both sides hold the same total).
        block = min(size, block * 2)
        mask >>= 1
    if rank < rem:
        yield from comm.send_raw(rank + m, tag, acc, size)
    return acc


ALLREDUCE_ALGORITHMS = {
    "recursive_doubling": _recursive_doubling,
    "ring": _ring,
    "reduce_bcast": _reduce_bcast,
    "rabenseifner": _rabenseifner,
}


def allreduce(
    comm: "Communicator",
    value: Any,
    op: Callable[[Any, Any], Any] | None = None,
    size: int = 8,
    algorithm: str = "recursive_doubling",
) -> Generator[Any, Any, Any]:
    """All-reduce ``value`` over ``comm``; every rank returns the result."""
    op = op or operator.add
    try:
        impl = ALLREDUCE_ALGORITHMS[algorithm]
    except KeyError:
        raise CommunicatorError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_ALGORITHMS)}"
        ) from None
    tag = comm.next_collective_tag()
    result = yield from impl(comm, value, op, size, tag)
    return result
