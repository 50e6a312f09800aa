"""Correctness tests for every collective algorithm.

Each algorithm must produce the semantically correct result on every rank
for several communicator sizes, including non-powers of two.  The Bruck
allgather lives in the tests as the oracle of ``Communicator.split``'s
wire messages, so it is checked here beside the ring.
"""

import operator

import pytest

from repro.errors import CommunicatorError
from repro.simmpi.collectives import (
    ALLREDUCE_ALGORITHMS,
    BARRIER_ALGORITHMS,
    BCAST_ALGORITHMS,
)
from tests.conftest import bruck_allgather, run_spmd

SIZES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (4, 4)]  # (nodes, rpn)


def spmd(main, nodes, rpn, **kw):
    _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn, **kw)
    return res.values


class TestBarrier:
    @pytest.mark.parametrize("algorithm", sorted(BARRIER_ALGORITHMS))
    @pytest.mark.parametrize("nodes,rpn", SIZES)
    def test_no_rank_exits_before_all_enter(self, algorithm, nodes, rpn):
        def main(ctx, comm):
            # Rank staggering: rank r enters the barrier at time r * 0.1.
            yield from ctx.elapse(comm.rank * 0.1)
            enter = ctx.now
            yield from comm.barrier(algorithm=algorithm)
            return (enter, ctx.now)

        values = spmd(main, nodes, rpn)
        last_entry = max(enter for enter, _ in values)
        for _, exit_time in values:
            assert exit_time >= last_entry

    def test_unknown_algorithm(self):
        def main(ctx, comm):
            try:
                yield from comm.barrier(algorithm="nope")
            except CommunicatorError:
                return "raised"
            return "no"

        assert spmd(main, 1, 2) == ["raised", "raised"]


class TestBcast:
    @pytest.mark.parametrize("algorithm", sorted(BCAST_ALGORITHMS))
    @pytest.mark.parametrize("nodes,rpn", SIZES)
    @pytest.mark.parametrize("root", [0, 1])
    def test_all_ranks_get_value(self, algorithm, nodes, rpn, root):
        if root >= nodes * rpn:
            pytest.skip("root out of range")

        def main(ctx, comm):
            value = {"data": 42} if comm.rank == root else None
            got = yield from comm.bcast(value, root=root,
                                        algorithm=algorithm)
            return got

        for v in spmd(main, nodes, rpn):
            assert v == {"data": 42}

    def test_invalid_root(self):
        def main(ctx, comm):
            try:
                yield from comm.bcast(1, root=99)
            except CommunicatorError:
                return "raised"
            return "no"

        assert all(v == "raised" for v in spmd(main, 1, 2))


class TestReduce:
    @pytest.mark.parametrize("nodes,rpn", SIZES)
    @pytest.mark.parametrize("root", [0, 1])
    def test_sum_to_root(self, nodes, rpn, root):
        n = nodes * rpn
        if root >= n:
            pytest.skip("root out of range")

        def main(ctx, comm):
            out = yield from comm.reduce(comm.rank, root=root)
            return out

        values = spmd(main, nodes, rpn)
        expected = sum(range(n))
        for rank, v in enumerate(values):
            if rank == root:
                assert v == expected
            else:
                assert v is None

    def test_custom_op_max(self):
        def main(ctx, comm):
            out = yield from comm.reduce(comm.rank * 10, op=max)
            return out

        values = spmd(main, 2, 2)
        assert values[0] == 30


class TestAllreduce:
    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    @pytest.mark.parametrize("nodes,rpn", SIZES)
    def test_sum_everywhere(self, algorithm, nodes, rpn):
        n = nodes * rpn

        def main(ctx, comm):
            out = yield from comm.allreduce(comm.rank + 1,
                                            algorithm=algorithm)
            return out

        expected = n * (n + 1) // 2
        assert spmd(main, nodes, rpn) == [expected] * n

    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    def test_logical_or_flags(self, algorithm):
        def main(ctx, comm):
            flag = 1 if comm.rank == 2 else 0
            out = yield from comm.allreduce(flag, op=operator.or_,
                                            algorithm=algorithm)
            return out

        assert spmd(main, 2, 2) == [1, 1, 1, 1]


class TestGatherScatter:
    @pytest.mark.parametrize("nodes,rpn", SIZES)
    @pytest.mark.parametrize("root", [0, 1])
    def test_gather_rank_order(self, nodes, rpn, root):
        n = nodes * rpn
        if root >= n:
            pytest.skip("root out of range")

        def main(ctx, comm):
            out = yield from comm.gather(comm.rank * 2, root=root)
            return out

        values = spmd(main, nodes, rpn)
        assert values[root] == [r * 2 for r in range(n)]

    @pytest.mark.parametrize("nodes,rpn", SIZES)
    @pytest.mark.parametrize("root", [0, 1])
    def test_scatter_blocks(self, nodes, rpn, root):
        n = nodes * rpn
        if root >= n:
            pytest.skip("root out of range")

        def main(ctx, comm):
            values = (
                [f"v{r}" for r in range(comm.size)]
                if comm.rank == root
                else None
            )
            out = yield from comm.scatter(values, root=root)
            return out

        values = spmd(main, nodes, rpn)
        assert values == [f"v{r}" for r in range(n)]

    def test_scatter_requires_values_at_root(self):
        def main(ctx, comm):
            yield from ()
            if comm.rank != 0:
                return "skipped"
            try:
                # The root-side validation fires before any communication,
                # so no other rank needs to participate.
                gen = comm.scatter(None, root=0)
                next(gen)
            except CommunicatorError:
                return "raised"
            return "no"

        values = spmd(main, 1, 2)
        assert values[0] == "raised"


#: The ring allgather of ``Communicator.allgather`` and the test-side
#: Bruck oracle, as ``(comm, value, size)`` generator functions.
ALLGATHERS = {
    "ring": lambda comm, value, size: comm.allgather(value, size=size),
    "bruck": bruck_allgather,
}


class TestAllgatherAlltoall:
    @pytest.mark.parametrize("algorithm", sorted(ALLGATHERS))
    @pytest.mark.parametrize("nodes,rpn", SIZES)
    def test_allgather_everywhere(self, algorithm, nodes, rpn):
        n = nodes * rpn

        def main(ctx, comm):
            out = yield from ALLGATHERS[algorithm](comm, comm.rank ** 2, 8)
            return out

        expected = [r ** 2 for r in range(n)]
        assert spmd(main, nodes, rpn) == [expected] * n

    @pytest.mark.parametrize("algorithm", sorted(ALLGATHERS))
    @pytest.mark.parametrize("p", [2, 3, 6, 7, 12, 16])
    def test_allgather_moves_exactly_p_p_minus_1_blocks(self, algorithm, p):
        """Each rank must receive p-1 blocks and no algorithm may ship a
        block twice — in particular Bruck's last round on a
        non-power-of-two group sends only the p - dist blocks missing."""
        size = 24

        def main(ctx, comm):
            out = yield from ALLGATHERS[algorithm](
                comm, (comm.rank, "x"), size
            )
            return out

        _, res = run_spmd(main, num_nodes=p, ranks_per_node=1)
        assert res.values == [[(r, "x") for r in range(p)]] * p
        assert res.engine_stats["bytes_sent"] == p * (p - 1) * size

    @pytest.mark.parametrize("nodes,rpn", SIZES)
    def test_alltoall_transpose(self, nodes, rpn):
        n = nodes * rpn

        def main(ctx, comm):
            values = [comm.rank * 100 + dest for dest in range(comm.size)]
            out = yield from comm.alltoall(values)
            return out

        values = spmd(main, nodes, rpn)
        for rank, got in enumerate(values):
            assert got == [src * 100 + rank for src in range(n)]

    def test_alltoall_wrong_length(self):
        def main(ctx, comm):
            try:
                yield from comm.alltoall([1])
            except CommunicatorError:
                return "raised"
            return "no"

        assert all(v == "raised" for v in spmd(main, 1, 2))
