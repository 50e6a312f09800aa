"""Per-process context: the API a simulated MPI process programs against.

A process body is a generator function ``def main(ctx): ...`` that uses
``yield from`` on the helpers below.  The context exposes

* point-to-point primitives (:meth:`send`, :meth:`recv`, :meth:`ssend`,
  :meth:`sendrecv`),
* local-time control (:meth:`elapse`, :meth:`wait_until_clock`),
* clock reads (:meth:`read_clock`, :meth:`wtime`) which charge the timer's
  read overhead to the process's time line,
* placement metadata (rank, node, socket, core) used by the hierarchical
  synchronization schemes.

Clock reads do **not** yield: they advance the process's local true time
directly, which the engine honours when scheduling the next command.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.errors import ClockError
from repro.simmpi.engine import (
    ElapseCmd,
    Engine,
    RecvCmd,
    SendCmd,
    SendRecvCmd,
    WaitUntilCmd,
)
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message
from repro.simtime.base import Clock
from repro.simtime.hardware import HardwareClock

#: Busy-wait loop period: a deadline wait lands up to this much late.
POLL_INTERVAL = 0.1e-6


class ProcessContext:
    """Handle through which a process body interacts with the simulation."""

    def __init__(
        self,
        engine: Engine,
        rank: int,
        hardware_clock: HardwareClock,
        node: int = 0,
        socket: int = 0,
        core: int = 0,
    ) -> None:
        self.engine = engine
        self.rank = rank
        self.hardware_clock = hardware_clock
        self.node = node
        self.socket = socket
        self.core = core
        #: Next communicator id this process hands out (0 is the world).
        self._comm_id_counter = 1

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current *true* simulation time (not observable by algorithms)."""
        return self.engine.proc_now(self.rank)

    @now.setter
    def now(self, value: float) -> None:
        self.engine.set_proc_now(self.rank, value)

    @property
    def rng(self) -> np.random.Generator:
        """This process's random stream (noise draws, poll slack)."""
        return self.engine.rng_of(self.rank)

    @property
    def nprocs(self) -> int:
        """World size of the simulated job."""
        return self.engine.num_ranks

    def read_clock(self, clock: Clock) -> float:
        """Read ``clock`` now; charges the clock's read overhead."""
        return self.engine.read_clock(self.rank, clock)

    def wtime(self) -> float:
        """``MPI_Wtime``: read this process's hardware clock."""
        return self.read_clock(self.hardware_clock)

    # ------------------------------------------------------------------
    # Yielding primitives
    # ------------------------------------------------------------------
    def send(
        self,
        dest: int,
        tag: int,
        payload: Any = None,
        size: int = 8,
    ) -> Generator:
        """Eager (buffered) send to global rank ``dest``."""
        # Commands are built positionally on the hot paths: keyword
        # arguments double a slotted dataclass's construction cost.
        yield SendCmd(dest, tag, payload, size)

    def ssend(
        self,
        dest: int,
        tag: int,
        payload: Any = None,
        size: int = 8,
    ) -> Generator:
        """Synchronous (rendezvous) send: returns once the receiver matched."""
        yield SendCmd(dest, tag, payload, size, True)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, Message]:
        """Blocking receive; returns the matched :class:`Message`."""
        msg = yield RecvCmd(source, tag)
        return msg

    def sendrecv(
        self,
        dest: int,
        send_tag: int,
        payload: Any = None,
        size: int = 8,
        source: int = ANY_SOURCE,
        recv_tag: int = ANY_TAG,
    ) -> Generator[Any, Any, Message]:
        """Eager send followed by a blocking receive (exchange pattern).

        Yields one fused :class:`SendRecvCmd`: the engine executes the
        send half, re-checks the causality gate, then runs the receive —
        bit-identical to a SendCmd/RecvCmd pair but one generator resume
        cheaper per exchange.
        """
        msg = yield SendRecvCmd(
            dest, send_tag, payload, size, source, recv_tag
        )
        return msg

    def elapse(self, duration: float) -> Generator:
        """Consume local compute time."""
        yield ElapseCmd(duration)

    compute = elapse

    def wait_until_true(self, true_time: float) -> Generator:
        """Sleep until an absolute *true* time (engine-internal use)."""
        yield WaitUntilCmd(true_time)

    def wait_until_clock(self, clock: Clock, reading: float) -> Generator:
        """Busy-wait until ``clock`` shows at least ``reading``.

        The wait is resolved analytically by inverting the clock stack, then
        a uniform draw in ``[0, POLL_INTERVAL)`` models the polling loop's
        discretization (a real busy-wait exits up to one loop period late).
        If the clock already shows a later value, returns immediately.
        """
        current = clock.read(self.now)
        if current < reading:
            try:
                deadline = clock.invert(reading)
            except ClockError:
                # Non-invertible model: fall back to stepped polling.
                deadline = self.now
                step = max(POLL_INTERVAL, 1e-7)
                while clock.read(deadline) < reading:
                    deadline += step
            slack = float(self.rng.uniform(0.0, POLL_INTERVAL))
            yield WaitUntilCmd(max(deadline + slack, self.now))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessContext(rank={self.rank}, node={self.node}, "
            f"socket={self.socket}, core={self.core})"
        )
