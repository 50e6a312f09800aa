"""``MPI_Barrier`` algorithm variants.

These are the variants Open MPI's ``coll/tuned`` component offers and the
paper benchmarks in Figs. 7–8: ``linear`` (flat fan-in/fan-out), ``tree``
(binomial gather + binomial release), ``double_ring`` (a token circulating
the ring twice), ``bruck`` (dissemination), and ``recursive_doubling``.

The paper's Fig. 8 finding — the tree barrier has by far the smallest exit
imbalance while the double ring has the largest — follows directly from the
communication structure reproduced here: the release phase of the tree is a
log-depth broadcast (everyone exits within O(log p) hops of the same
instant), while the double ring's exit times are spread across a full
O(p)-latency token circulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import CommunicatorError
from repro.simmpi.collectives._tree import (
    binomial_children,
    binomial_parent,
    highest_power_of_two_below,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator

#: Size in bytes of the zero-payload control messages a barrier exchanges.
TOKEN_BYTES = 1


def _linear(comm: "Communicator", tag: int) -> Generator:
    """Fan-in to rank 0, then fan-out release (flat, O(p) messages at root)."""
    if comm.rank == 0:
        for _ in range(comm.size - 1):
            yield from comm.recv_raw(None, tag)
        for peer in range(1, comm.size):
            yield from comm.send_raw(peer, tag, size=TOKEN_BYTES)
    else:
        yield from comm.sendrecv_raw(0, tag, size=TOKEN_BYTES)


def _tree(comm: "Communicator", tag: int) -> Generator:
    """Binomial gather followed by binomial release (Open MPI 'tree')."""
    rank, size = comm.rank, comm.size
    parent = binomial_parent(rank, size)
    children = binomial_children(rank, size)
    # Gather phase: receive from children (deepest subtrees last in the
    # reversed order to mirror the reduce direction), then notify parent.
    for child in reversed(children):
        yield from comm.recv_raw(child, tag)
    if parent is not None:
        yield from comm.sendrecv_raw(parent, tag, size=TOKEN_BYTES)
    # Release phase: forward to children.
    for child in children:
        yield from comm.send_raw(child, tag, size=TOKEN_BYTES)


def _double_ring(comm: "Communicator", tag: int) -> Generator:
    """A token travels the ring twice; exits are spread over O(p) latency."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    left = (rank - 1) % size
    right = (rank + 1) % size
    if rank == 0:
        for _ in range(2):
            yield from comm.sendrecv_raw(
                right, tag, size=TOKEN_BYTES, source=left
            )
    else:
        for _ in range(2):
            yield from comm.recv_raw(left, tag)
            yield from comm.send_raw(right, tag, size=TOKEN_BYTES)


def _bruck(comm: "Communicator", tag: int) -> Generator:
    """Dissemination barrier: ceil(log2 p) rounds of shifted exchanges."""
    rank, size = comm.rank, comm.size
    dist = 1
    while dist < size:
        to = (rank + dist) % size
        frm = (rank - dist) % size
        yield from comm.sendrecv_raw(to, tag, size=TOKEN_BYTES, source=frm)
        dist <<= 1


def _recursive_doubling(comm: "Communicator", tag: int) -> Generator:
    """Pairwise-exchange barrier with the standard non-power-of-two fold."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    m = highest_power_of_two_below(size)
    rem = size - m
    if rank >= m:
        # Surplus ranks notify a partner in the power-of-two core and wait.
        yield from comm.sendrecv_raw(rank - m, tag, size=TOKEN_BYTES)
        return
    if rank < rem:
        yield from comm.recv_raw(rank + m, tag)
    mask = 1
    while mask < m:
        partner = rank ^ mask
        yield from comm.sendrecv_raw(partner, tag, size=TOKEN_BYTES)
        mask <<= 1
    if rank < rem:
        yield from comm.send_raw(rank + m, tag, size=TOKEN_BYTES)


BARRIER_ALGORITHMS = {
    "linear": _linear,
    "tree": _tree,
    "double_ring": _double_ring,
    "bruck": _bruck,
    "recursive_doubling": _recursive_doubling,
}


def barrier(comm: "Communicator", algorithm: str = "tree") -> Generator:
    """Execute one barrier over ``comm`` with the named algorithm."""
    try:
        impl = BARRIER_ALGORITHMS[algorithm]
    except KeyError:
        raise CommunicatorError(
            f"unknown barrier algorithm {algorithm!r}; "
            f"choose from {sorted(BARRIER_ALGORITHMS)}"
        ) from None
    tag = comm.next_collective_tag()
    yield from impl(comm, tag)
