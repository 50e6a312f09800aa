"""Unit tests for the Simulation facade."""

import pytest

from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.cluster.topology import Machine
from repro.errors import SimulationError
from repro.simmpi.simulation import Simulation


def machine(nodes=2, rpn=2):
    return Machine(num_nodes=nodes, sockets_per_node=2,
                   cores_per_socket=max(1, (rpn + 1) // 2),
                   ranks_per_node=rpn)


def trivial(ctx, comm):
    total = yield from comm.allreduce(1)
    return total


def shared_time_source(sim, ranks) -> bool:
    """Do all ``ranks`` read one hardware clock object?"""
    return len({id(sim.clocks[r]) for r in ranks}) == 1


class TestClockDomains:
    def test_node_shared_clocks(self):
        sim = Simulation(machine(2, 4), ideal_network())
        assert shared_time_source(sim, [0, 1, 2, 3])
        assert not shared_time_source(sim, [0, 4])

    def test_socket_clocks(self):
        sim = Simulation(machine(1, 4), ideal_network(),
                         clocks_per="socket")
        # ranks 0,1 on socket 0; ranks 2,3 on socket 1.
        assert shared_time_source(sim, [0, 1])
        assert not shared_time_source(sim, [0, 2])

    def test_core_clocks(self):
        sim = Simulation(machine(1, 4), ideal_network(), clocks_per="core")
        assert not shared_time_source(sim, [0, 1])

    def test_invalid_clock_domain(self):
        with pytest.raises(SimulationError):
            Simulation(machine(), ideal_network(), clocks_per="rack")


class TestRun:
    def test_values_per_rank(self):
        sim = Simulation(machine(2, 2), ideal_network())
        result = sim.run(trivial)
        assert result.values == [4, 4, 4, 4]
        assert result.messages > 0

    def test_reproducible_across_instances(self):
        def body(ctx, comm):
            yield from comm.barrier()
            return ctx.now

        r1 = Simulation(machine(), infiniband_qdr(), seed=3).run(body)
        r2 = Simulation(machine(), infiniband_qdr(), seed=3).run(body)
        assert r1.values == r2.values

    def test_seed_changes_outcome(self):
        def body(ctx, comm):
            yield from comm.barrier()
            return ctx.now

        r1 = Simulation(machine(), infiniband_qdr(), seed=3).run(body)
        r2 = Simulation(machine(), infiniband_qdr(), seed=4).run(body)
        assert r1.values != r2.values
