"""Property-based tests for collective correctness and engine invariants."""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.netmodels import infiniband_qdr
from tests.conftest import run_spmd

sizes = st.tuples(
    st.integers(min_value=1, max_value=3),  # nodes
    st.integers(min_value=1, max_value=4),  # ranks per node
)


class TestCollectiveProperties:
    @given(
        shape=sizes,
        seed=st.integers(min_value=0, max_value=1000),
        values=st.lists(st.integers(min_value=-100, max_value=100),
                        min_size=12, max_size=12),
        algorithm=st.sampled_from(["recursive_doubling", "ring",
                                   "reduce_bcast"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_allreduce_equals_local_reduce(self, shape, seed, values,
                                           algorithm):
        nodes, rpn = shape
        n = nodes * rpn

        def main(ctx, comm):
            out = yield from comm.allreduce(values[comm.rank % 12],
                                            algorithm=algorithm)
            return out

        _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn,
                          network=infiniband_qdr(), seed=seed)
        expected = sum(values[r % 12] for r in range(n))
        assert res.values == [expected] * n

    @given(shape=sizes, seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_allgather_is_gather_of_everyone(self, shape, seed):
        nodes, rpn = shape

        def main(ctx, comm):
            out = yield from comm.allgather((comm.rank, ctx.node))
            return out

        _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn,
                          network=infiniband_qdr(), seed=seed)
        reference = res.values[0]
        assert all(v == reference for v in res.values)
        assert [r for r, _ in reference] == list(range(nodes * rpn))

    @given(
        shape=sizes,
        seed=st.integers(min_value=0, max_value=1000),
        algorithm=st.sampled_from(["linear", "tree", "double_ring",
                                   "bruck", "recursive_doubling"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_barrier_synchronizes(self, shape, seed, algorithm):
        nodes, rpn = shape

        def main(ctx, comm):
            yield from ctx.elapse((comm.rank % 5) * 0.01)
            entered = ctx.now
            yield from comm.barrier(algorithm=algorithm)
            return (entered, ctx.now)

        _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn,
                          network=infiniband_qdr(), seed=seed)
        last_entry = max(t for t, _ in res.values)
        assert all(exit_ >= last_entry for _, exit_ in res.values)

    @given(
        shape=sizes,
        seed=st.integers(min_value=0, max_value=500),
        op_name=st.sampled_from(["sum", "max", "min", "or"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_reduce_matches_python_reduce(self, shape, seed, op_name):
        nodes, rpn = shape
        n = nodes * rpn
        ops = {
            "sum": operator.add,
            "max": max,
            "min": min,
            "or": operator.or_,
        }
        op = ops[op_name]

        def main(ctx, comm):
            out = yield from comm.reduce(comm.rank + 1, op=op, root=0)
            return out

        _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn,
                          network=infiniband_qdr(), seed=seed)
        import functools

        expected = functools.reduce(op, range(2, n + 1), 1)
        assert res.values[0] == expected


class TestEngineProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_simulation_reproducible(self, seed):
        def main(ctx, comm):
            yield from comm.barrier(algorithm="bruck")
            v = yield from comm.allreduce(ctx.rank)
            return (v, ctx.now)

        _, res1 = run_spmd(main, network=infiniband_qdr(), seed=seed)
        _, res2 = run_spmd(main, network=infiniband_qdr(), seed=seed)
        assert res1.values == res2.values

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        npairs=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=15, deadline=None)
    def test_message_conservation(self, seed, npairs):
        """Messages delivered == messages sent (no loss, no duplication)."""

        def main(ctx, comm):
            partner = comm.rank ^ 1
            for i in range(npairs):
                if comm.rank % 2 == 0:
                    yield from comm.send(partner, 1, payload=i)
                else:
                    msg = yield from comm.recv(partner, 1)
                    assert msg.payload == i
            return None

        sim, res = run_spmd(main, num_nodes=2, ranks_per_node=2,
                            network=infiniband_qdr(), seed=seed)
        assert res.messages == npairs * 2
