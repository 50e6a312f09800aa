"""Tests for interconnect fabrics (torus hop latency)."""

import pytest

from repro.cluster.fabric import FlatFabric, TorusFabric
from repro.cluster.topology import Machine
from repro.simmpi.network import Level, LinkParams, NetworkModel
from repro.simmpi.simulation import Simulation


class TestTorusGeometry:
    def test_coords_row_major(self):
        t = TorusFabric((2, 3, 4))
        assert t.coords(0) == (0, 0, 0)
        assert t.coords(1) == (0, 0, 1)
        assert t.coords(4) == (0, 1, 0)
        assert t.coords(12) == (1, 0, 0)
        assert t.num_nodes == 24

    def test_hops_wraparound(self):
        t = TorusFabric((4,))
        # 0 -> 3 wraps: distance 1, not 3.
        assert t.hops(0, 3) == 1
        assert t.hops(0, 2) == 2

    def test_hops_symmetric(self):
        t = TorusFabric((3, 3, 3))
        for a in range(0, 27, 5):
            for b in range(0, 27, 7):
                assert t.hops(a, b) == t.hops(b, a)

    def test_self_distance_zero(self):
        t = TorusFabric((3, 3))
        assert t.hops(4, 4) == 0
        assert t.extra_latency(4, 4) == 0.0

    def test_extra_latency_scales_with_hops(self):
        t = TorusFabric((8,), per_hop_latency=1e-6)
        assert t.extra_latency(0, 4) == pytest.approx(4e-6)

    def test_memoised_latency_equals_fresh(self):
        """The per-pair memo serves what the route computation gives."""
        t = TorusFabric((3, 4, 5), per_hop_latency=0.12e-6)
        nodes = range(t.num_nodes)
        first = {(a, b): t.extra_latency(a, b) for a in nodes for b in nodes}
        for (a, b), latency in first.items():
            assert t.extra_latency(a, b) == latency  # now from the memo
            assert latency == (
                t.per_hop_latency * t.hops(a, b) if a != b else 0.0
            )

    def test_out_of_range_nodes_raise_with_a_warm_memo(self):
        t = TorusFabric((3, 4, 5))
        t.extra_latency(1, 0)  # same flat index as (0, 60) would have
        for a, b in [(0, 60), (60, 0), (-1, 3), (3, -1)]:
            with pytest.raises(ValueError):
                t.extra_latency(a, b)

    def test_diameter(self):
        assert TorusFabric((4, 4, 4)).diameter() == 6

    def test_cube_for_covers_nodes(self):
        t = TorusFabric.cube_for(100)
        assert t.num_nodes >= 100

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusFabric(())
        with pytest.raises(ValueError):
            TorusFabric((0, 2))
        with pytest.raises(ValueError):
            TorusFabric((2,), per_hop_latency=-1.0)
        with pytest.raises(ValueError):
            TorusFabric((2, 2)).coords(4)


class TestFlatFabric:
    def test_always_zero(self):
        f = FlatFabric()
        assert f.extra_latency(0, 99) == 0.0


class TestFabricInSimulation:
    def _pingpong_rtt(self, fabric, node_b):
        machine = Machine(num_nodes=9, sockets_per_node=1,
                          cores_per_socket=1)
        network = NetworkModel(
            levels={Level.REMOTE: LinkParams(latency=1e-6,
                                             bandwidth=1e12)},
            o_send=0.0, o_recv=0.0,
        )

        def main(ctx, comm):
            if comm.rank == 0:
                t0 = ctx.now
                yield from comm.send(node_b, 1, None, 8)
                yield from comm.recv(node_b, 1)
                return ctx.now - t0
            if comm.rank == node_b:
                yield from comm.recv(0, 1)
                yield from comm.send(0, 1, None, 8)
            return None

        sim = Simulation(machine=machine, network=network, fabric=fabric,
                         seed=0)
        return sim.run(main).values[0]

    def test_distance_changes_latency(self):
        fabric = TorusFabric((3, 3), per_hop_latency=5e-6)
        near = self._pingpong_rtt(fabric, 1)   # 1 hop
        far = self._pingpong_rtt(fabric, 4)    # (1,1): 2 hops
        assert far > near
        assert far - near == pytest.approx(2 * 5e-6, rel=1e-6)

    def test_flat_fabric_matches_no_fabric(self):
        flat = self._pingpong_rtt(FlatFabric(), 4)
        none = self._pingpong_rtt(None, 4)
        assert flat == none
