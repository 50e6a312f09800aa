"""``MPI_Gather``: every rank sends straight to the root (linear)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import CommunicatorError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


def gather(
    comm: "Communicator",
    value: Any,
    root: int = 0,
    size: int = 8,
) -> Generator[Any, Any, list[Any] | None]:
    """Gather one value per rank to ``root`` (root gets the rank-ordered list)."""
    if not 0 <= root < comm.size:
        raise CommunicatorError(f"invalid gather root {root}")
    tag = comm.next_collective_tag()
    if comm.rank != root:
        yield from comm.send_raw(root, tag, value, size)
        return None
    out: list[Any] = [None] * comm.size
    out[root] = value
    for peer in range(comm.size):
        if peer == root:
            continue
        msg = yield from comm.recv_raw(peer, tag)
        out[peer] = msg.payload
    return out
