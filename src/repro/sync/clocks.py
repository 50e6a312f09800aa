"""Logical global clocks built as decorators over a base clock.

:class:`GlobalClockLM` wraps any :class:`~repro.simtime.base.Clock` with a
:class:`~repro.sync.linear_model.LinearDriftModel` adjustment — this is the
``GlobalClockLM(clk, lm)`` of the paper's Algorithm 1.  Clock models nest
(the "decorator pattern" the paper describes for the hierarchical scheme):
H2HCA wraps a node leader's inter-node global clock with an intra-node
model, giving ``GlobalClockLM(GlobalClockLM(hwclock, lm1), lm2)``.

:func:`flatten_clock` / :func:`unflatten_clock` convert a nested stack to a
flat list of (slope, intercept) pairs and back — the wire format
ClockPropSync broadcasts inside a shared-time-source domain (Algorithm 3).
"""

from __future__ import annotations

import numpy as np

from repro.simtime.base import Clock
from repro.sync.linear_model import LinearDriftModel


class GlobalClockLM(Clock):
    """A base clock adjusted by a linear drift model.

    ``read`` applies the model to the base reading; ``invert`` chains the
    affine inverse with the base clock's inverse, so deadline waits on a
    global clock resolve analytically all the way to true time.
    """

    def __init__(self, base: Clock, model: LinearDriftModel) -> None:
        self.base = base
        self.model = model

    def read(self, true_time: float) -> float:
        # LinearDriftModel.apply written out: same operations, same order.
        local = self.base.read(true_time)
        model = self.model
        return local - (model.slope * local + model.intercept)

    def read_many(self, true_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`read`: the affine adjustment maps elementwise
        over the base clock's batch read, so a nested stack resolves a
        whole grid in one array pass per layer — bit-identical to the
        scalar path (same doubles, same operation order per element)."""
        return self.model.apply_many(self.base.read_many(true_times))

    def invert(self, reading: float) -> float:
        return self.base.invert(self.model.apply_inverse(reading))

    @property
    def granularity(self) -> float:
        return self.base.granularity

    @property
    def read_overhead(self) -> float:
        return self.base.read_overhead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalClockLM({self.base!r}, {self.model!r})"


def dummy_global_clock(base: Clock) -> GlobalClockLM:
    """``GlobalClockLM(clk, 0, 0)`` — the identity wrap of Algorithm 1."""
    return GlobalClockLM(base, LinearDriftModel.ZERO)


def flatten_clock(clock: Clock) -> list[tuple[float, float]]:
    """Serialize the model stack, outermost adjustment first.

    The base hardware clock itself is *not* serialized — ClockPropSync's
    whole premise is that the receiver substitutes its own base clock,
    which is valid exactly when sender and receiver share a time source.
    """
    models: list[tuple[float, float]] = []
    current = clock
    while isinstance(current, GlobalClockLM):
        models.append(current.model.as_tuple())
        current = current.base
    return models


def flattened_size_bytes(models: list[tuple[float, float]]) -> int:
    """Wire size of a flattened clock (two doubles per level)."""
    return max(8, 16 * len(models))


def unflatten_clock(base: Clock, models: list[tuple[float, float]]) -> Clock:
    """Rebuild a nested clock stack around ``base``.

    ``models`` is the output of :func:`flatten_clock` (outermost first).
    """
    clock: Clock = base
    for slope, intercept in reversed(models):
        clock = GlobalClockLM(clock, LinearDriftModel(slope, intercept))
    return clock


def base_hardware_clock(clock: Clock) -> Clock:
    """Strip all model layers, returning the underlying clock."""
    current = clock
    while isinstance(current, GlobalClockLM):
        current = current.base
    return current
