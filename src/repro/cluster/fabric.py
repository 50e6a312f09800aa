"""Interconnect fabrics: topology-dependent inter-node latency.

The base network model charges a flat REMOTE latency; real fabrics add a
per-hop cost that depends on where two nodes sit in the interconnect.
Titan's Cray Gemini is a 3D torus: messages between distant nodes cross
more router hops, which both raises the mean latency and widens the
latency *spread* across node pairs — one of the reasons the paper's
Fig. 6 (16k cores) shows much larger run-to-run variance than the
single-switch InfiniBand/OmniPath machines.

A fabric contributes ``extra_latency(node_a, node_b)`` seconds on top of
the level-based delay; :class:`~repro.simmpi.simulation.Simulation`
forwards it to the engine.
"""

from __future__ import annotations

import math
from typing import Protocol


class Fabric(Protocol):
    """Anything that prices a node pair in extra one-way latency."""

    def extra_latency(self, node_a: int, node_b: int) -> float:
        ...


class FlatFabric:
    """Single-switch fabric: no topology-dependent cost (IB/OmniPath)."""

    def extra_latency(self, node_a: int, node_b: int) -> float:
        return 0.0


class TorusFabric:
    """k-ary n-cube (torus) with dimension-ordered routing.

    Nodes map to coordinates in row-major order over ``dims``; the hop
    count between two nodes is the sum of per-dimension wrap-around
    distances, and each hop costs ``per_hop_latency``.
    """

    def __init__(
        self,
        dims: tuple[int, ...],
        per_hop_latency: float = 0.12e-6,
    ) -> None:
        if not dims or any(d <= 0 for d in dims):
            raise ValueError("dims must be non-empty positive extents")
        if per_hop_latency < 0:
            raise ValueError("per_hop_latency must be >= 0")
        self.dims = tuple(dims)
        self.per_hop_latency = float(per_hop_latency)
        self.num_nodes = math.prod(dims)
        #: ``(node_a, node_b) -> extra latency`` for the pairs that have
        #: communicated; ``dims`` and the hop cost never change, so the
        #: route is computed once per pair.
        self._latency: dict[tuple[int, int], float] = {}

    @classmethod
    def cube_for(cls, num_nodes: int,
                 per_hop_latency: float = 0.12e-6) -> "TorusFabric":
        """A near-cubic 3D torus large enough for ``num_nodes`` nodes."""
        side = max(1, round(num_nodes ** (1.0 / 3.0)))
        while side ** 3 < num_nodes:
            side += 1
        return cls((side, side, side), per_hop_latency)

    def coords(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside torus of "
                             f"{self.num_nodes}")
        out = []
        for extent in reversed(self.dims):
            out.append(node % extent)
            node //= extent
        return tuple(reversed(out))

    def hops(self, node_a: int, node_b: int) -> int:
        """Dimension-ordered wrap-around (torus) Manhattan distance."""
        total = 0
        for a, b, extent in zip(self.coords(node_a), self.coords(node_b),
                                self.dims):
            d = abs(a - b)
            total += min(d, extent - d)
        return total

    def extra_latency(self, node_a: int, node_b: int) -> float:
        if node_a == node_b:
            return 0.0
        pair = (node_a, node_b)
        latency = self._latency.get(pair)
        if latency is None:
            latency = self._latency[pair] = (
                self.per_hop_latency * self.hops(node_a, node_b)
            )
        return latency

    def diameter(self) -> int:
        """Maximum hop count between any two nodes."""
        return sum(extent // 2 for extent in self.dims)
