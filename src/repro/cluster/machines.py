"""The parallel machines of the paper's Table I, as scalable presets.

| Name    | Hardware                                   | Interconnect   |
|---------|--------------------------------------------|----------------|
| Jupiter | 36 × dual Opteron 6134 (2×8 cores)         | InfiniBand QDR |
| Hydra   | 36 × dual Xeon Gold 6130 (2×16 cores)      | Intel OmniPath |
| Titan   | Cray XK7, Opteron 6274 (16 cores/node)     | Cray Gemini    |

Each factory accepts ``num_nodes``/``ranks_per_node`` overrides so
experiments can run the paper's exact shapes (e.g. 32×16 on Jupiter) or a
scaled-down version with the same structure; EXPERIMENTS.md records the
scale used per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.fabric import FlatFabric, TorusFabric
from repro.cluster.netmodels import cray_gemini, infiniband_qdr, omnipath
from repro.cluster.topology import Machine
from repro.simmpi.network import NetworkModel


def flat_fabric(num_nodes: int) -> FlatFabric:
    """Single-switch fabric, independent of node count.

    Module-level (rather than a lambda) so :class:`MachineSpec` presets
    are picklable — the parallel campaign executor ships specs to worker
    processes.
    """
    return FlatFabric()


def torus_fabric(num_nodes: int) -> TorusFabric:
    """3D-torus fabric sized for ``num_nodes`` (Titan's Gemini)."""
    return TorusFabric.cube_for(num_nodes)


@dataclass(frozen=True)
class MachineSpec:
    """A machine preset: topology factory, network and fabric.

    The clocks are not part of the preset: a simulation takes its time
    source separately, and the per-machine drift presets the Figs. 3–6
    campaigns use are ``repro.experiments.common.MACHINE_TIME_SOURCES``.
    Presets are picklable (factories are module-level functions), which
    lets :mod:`repro.parallel` submit campaign jobs referencing a spec to
    worker processes directly.
    """

    name: str
    default_nodes: int
    sockets_per_node: int
    cores_per_socket: int
    network_factory: Callable[[], NetworkModel]
    #: Builds the interconnect fabric for a given node count (torus for
    #: Titan's Gemini; flat single-switch fabrics elsewhere).
    fabric_factory: Callable[[int], object] = field(default=flat_fabric)

    def machine(
        self,
        num_nodes: int | None = None,
        ranks_per_node: int | None = None,
    ) -> Machine:
        return Machine(
            num_nodes=num_nodes or self.default_nodes,
            sockets_per_node=self.sockets_per_node,
            cores_per_socket=self.cores_per_socket,
            ranks_per_node=ranks_per_node,
            name=self.name,
        )

    def network(self) -> NetworkModel:
        return self.network_factory()

    def fabric(self, num_nodes: int | None = None):
        return self.fabric_factory(num_nodes or self.default_nodes)


JUPITER = MachineSpec(
    name="jupiter",
    default_nodes=36,
    sockets_per_node=2,
    cores_per_socket=8,
    network_factory=infiniband_qdr,
)

HYDRA = MachineSpec(
    name="hydra",
    default_nodes=36,
    sockets_per_node=2,
    cores_per_socket=16,
    network_factory=omnipath,
)

TITAN = MachineSpec(
    name="titan",
    default_nodes=1024,
    sockets_per_node=1,
    cores_per_socket=16,
    network_factory=cray_gemini,
    fabric_factory=torus_fabric,
)

MACHINES: dict[str, MachineSpec] = {
    "jupiter": JUPITER,
    "hydra": HYDRA,
    "titan": TITAN,
}


def jupiter() -> MachineSpec:
    """Jupiter preset; use as ``jupiter().machine(num_nodes, ranks_per_node)``."""
    return JUPITER


def hydra() -> MachineSpec:
    """Hydra preset."""
    return HYDRA


def titan() -> MachineSpec:
    """Titan preset."""
    return TITAN
