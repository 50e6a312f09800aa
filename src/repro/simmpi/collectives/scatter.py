"""``MPI_Scatter``: binomial-tree scatter.

HCA/HCA2 distribute the learned clock models with ``MPI_Scatter`` (Fig. 1a
in the paper); this module provides that operation for the substrate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.errors import CommunicatorError
from repro.simmpi.collectives._tree import binomial_children, binomial_parent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def scatter(
    comm: "Communicator",
    values: Sequence[Any] | None = None,
    root: int = 0,
    size: int = 8,
) -> Generator[Any, Any, Any]:
    """Scatter ``values`` (rank-indexed, root only) to all ranks.

    Down a binomial tree: inner nodes split the blocks they forward.
    """
    if not 0 <= root < comm.size:
        raise CommunicatorError(f"invalid scatter root {root}")
    if comm.rank == root:
        if values is None or len(values) != comm.size:
            raise CommunicatorError(
                "scatter root must supply one value per rank"
            )
    tag = comm.next_collective_tag()
    rank, nprocs = comm.rank, comm.size
    relative = (rank - root) % nprocs

    if relative == 0:
        block: dict[int, Any] = {
            ((r + root) % nprocs): values[(r + root) % nprocs]
            for r in range(nprocs)
        }
    else:
        parent = binomial_parent(relative, nprocs)
        assert parent is not None
        msg = yield from comm.recv_raw((parent + root) % nprocs, tag)
        block = msg.payload

    for child in binomial_children(relative, nprocs):
        # The subtree rooted at relative rank c = relative + m (m a power of
        # two) covers relative ranks c .. c + m - 1.
        mask = child - relative
        sub = {}
        for rel in range(child, min(child + mask, nprocs)):
            key = (rel + root) % nprocs
            if key in block:
                sub[key] = block.pop(key)
        yield from comm.send_raw(
            (child + root) % nprocs, tag, sub, size * max(1, len(sub))
        )
    return block[rank]
