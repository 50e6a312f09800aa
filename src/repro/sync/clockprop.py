"""ClockPropSync (paper Algorithm 3): clone a clock model over a bcast.

When all processes of a communicator share a hardware time source (cores of
one compute node, typically), there is nothing to *measure*: the reference
process flattens its (possibly nested) clock model into a buffer, broadcasts
its size and then the buffer, and every receiver re-instantiates the model
stack around its own base clock.

Correctness requires the shared-time-source precondition — the paper notes
the check via ``clock_getcpuclockid(0)``; here :meth:`check_shared_source`
performs the equivalent ground-truth check (identical HardwareClock
objects), and :class:`~repro.sync.hierarchical.HierarchicalSync` can be
asked to verify it before applying this algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import SyncError
from repro.simtime.base import Clock
from repro.sync.base import ClockSyncAlgorithm
from repro.sync.clocks import (
    base_hardware_clock,
    dummy_global_clock,
    flatten_clock,
    flattened_size_bytes,
    unflatten_clock,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


class ClockPropagationSync(ClockSyncAlgorithm):
    """Broadcast-and-clone synchronization for shared-time-source domains."""

    name = "clockpropagation"

    def __init__(self, p_ref: int = 0) -> None:
        self.p_ref = p_ref

    def label(self) -> str:
        return self.name

    # The real implementation checks the shared-time-source precondition
    # with clock_getcpuclockid(0); the simulation cannot, and a test
    # shows that violating it yields an incorrect clock.

    def sync_clocks(self, comm: "Communicator", clock: Clock) -> Generator:
        if not 0 <= self.p_ref < comm.size:
            raise SyncError(f"p_ref {self.p_ref} out of range")
        if comm.rank == self.p_ref:
            models = flatten_clock(clock)
            buf_size = flattened_size_bytes(models)
            yield from comm.bcast(buf_size, root=self.p_ref, size=8)
            yield from comm.bcast(models, root=self.p_ref, size=buf_size)
            return clock
        buf_size = yield from comm.bcast(None, root=self.p_ref, size=8)
        models = yield from comm.bcast(
            None, root=self.p_ref, size=buf_size
        )
        base = base_hardware_clock(clock)
        if not models:
            return dummy_global_clock(base)
        return unflatten_clock(base, models)
