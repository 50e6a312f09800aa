"""Unit tests for the machine topology model."""

import pytest

from repro.cluster.topology import Machine
from repro.simmpi.network import Level


class TestPlacement:
    def test_block_placement(self):
        m = Machine(num_nodes=2, sockets_per_node=2, cores_per_socket=2)
        # 4 ranks per node; rank 5 is node 1, local 1 -> socket 0, core 1.
        pl = m.placement(5)
        assert (pl.node, pl.socket, pl.core) == (1, 0, 1)

    def test_socket_boundaries(self):
        m = Machine(num_nodes=1, sockets_per_node=2, cores_per_socket=4)
        assert m.placement(3).socket == 0
        assert m.placement(4).socket == 1

    def test_partial_ranks_fill_first_socket(self):
        m = Machine(num_nodes=2, sockets_per_node=2, cores_per_socket=8,
                    ranks_per_node=4)
        for r in range(4):
            assert m.placement(r).socket == 0

    def test_out_of_range(self):
        m = Machine(num_nodes=1, sockets_per_node=1, cores_per_socket=2)
        with pytest.raises(ValueError):
            m.placement(2)
        with pytest.raises(ValueError):
            m.placement(-1)

    def test_num_ranks(self):
        m = Machine(num_nodes=3, sockets_per_node=2, cores_per_socket=4,
                    ranks_per_node=5)
        assert m.num_ranks == 15

    def test_invalid_extents(self):
        with pytest.raises(ValueError):
            Machine(num_nodes=0)
        with pytest.raises(ValueError):
            Machine(num_nodes=1, sockets_per_node=1, cores_per_socket=1,
                    ranks_per_node=5)


class TestLevels:
    def test_level_classification(self):
        m = Machine(num_nodes=2, sockets_per_node=2, cores_per_socket=2)
        assert m.level_between(0, 0) == Level.SELF
        assert m.level_between(0, 1) == Level.SOCKET
        assert m.level_between(0, 2) == Level.NODE
        assert m.level_between(0, 4) == Level.REMOTE

    def test_symmetry(self):
        m = Machine(num_nodes=2, sockets_per_node=2, cores_per_socket=2)
        for a in range(m.num_ranks):
            for b in range(m.num_ranks):
                assert m.level_between(a, b) == m.level_between(b, a)


class TestNodeQueries:
    def test_node_of(self):
        m = Machine(num_nodes=2, sockets_per_node=1, cores_per_socket=2)
        assert [m.node_of(r) for r in range(4)] == [0, 0, 1, 1]
