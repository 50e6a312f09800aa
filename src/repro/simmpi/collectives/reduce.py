"""``MPI_Reduce``: binomial-tree reduction.

Reduction operators are plain Python callables ``op(a, b)``; they must be
associative (and, for the recursive/tree shapes, commutative — true for all
operators the paper's experiments use: sum, max, logical-or).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.errors import CommunicatorError
from repro.simmpi.collectives._tree import binomial_children, binomial_parent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def reduce(
    comm: "Communicator",
    value: Any,
    op: Callable[[Any, Any], Any] | None = None,
    root: int = 0,
    size: int = 8,
) -> Generator[Any, Any, Any]:
    """Reduce ``value`` to ``root``; root returns the result, others None."""
    if not 0 <= root < comm.size:
        raise CommunicatorError(f"invalid reduce root {root}")
    op = op or operator.add
    tag = comm.next_collective_tag()
    rank, nprocs = comm.rank, comm.size
    relative = (rank - root) % nprocs
    acc = value
    # Children deliver their partial results before we forward to the parent;
    # receive deepest-subtree-first so partials are ready when needed.
    for child in reversed(binomial_children(relative, nprocs)):
        msg = yield from comm.recv_raw((child + root) % nprocs, tag)
        acc = op(acc, msg.payload)
    parent = binomial_parent(relative, nprocs)
    if parent is not None:
        yield from comm.send_raw((parent + root) % nprocs, tag, acc, size)
        return None
    return acc
