"""Latency-shape tests: algorithm structure must show up in timing.

These tests assert relative *performance* facts the benchmark harness
relies on (not just value correctness): tree-shaped collectives beat flat
ones at scale, message size increases cost, and so on.
"""


from repro.simmpi.network import Level, LinkParams, NetworkModel
from tests.conftest import run_spmd


def overhead_network() -> NetworkModel:
    """Deterministic network with a real CPU send overhead.

    The o_send term is what makes flat (linear) collectives expensive at
    the root; without it a root could inject p-1 messages for free.
    """
    return NetworkModel(
        name="overhead",
        levels={Level.REMOTE: LinkParams(latency=2e-6, bandwidth=1e9)},
        o_send=1e-6,
        o_recv=0.2e-6,
    )


def timed_collective(op, nodes=8, rpn=1, seed=0):
    def main(ctx, comm):
        t0 = ctx.now
        yield from op(comm)
        return ctx.now - t0

    _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn,
                      network=overhead_network(), seed=seed)
    return max(res.values)


class TestLatencyShapes:
    def test_bigger_payload_costs_more(self):
        def small(comm):
            yield from comm.allreduce(1, size=8)

        def big(comm):
            yield from comm.allreduce(1, size=1 << 20)

        assert timed_collective(big) > timed_collective(small)

    def test_allreduce_rd_beats_ring_small_payload(self):
        def rd(comm):
            yield from comm.allreduce(1, algorithm="recursive_doubling",
                                      size=8)

        def ring(comm):
            yield from comm.allreduce(1, algorithm="ring", size=8)

        # log p rounds vs 2(p-1) steps.
        assert timed_collective(rd, nodes=16) < timed_collective(
            ring, nodes=16
        )

    def test_double_ring_barrier_slowest(self):
        def barrier(algorithm):
            def op(comm):
                yield from comm.barrier(algorithm=algorithm)

            return op

        t_tree = timed_collective(barrier("tree"), nodes=16)
        t_ring = timed_collective(barrier("double_ring"), nodes=16)
        assert t_ring > 2 * t_tree

    def test_barrier_latency_grows_with_p(self):
        def op(comm):
            yield from comm.barrier(algorithm="bruck")

        assert timed_collective(op, nodes=32) > timed_collective(
            op, nodes=4
        )


class TestVariantTradeoffs:
    """The classic small/large-message trade-offs a tuner exploits."""

    def test_scatter_allgather_bcast_wins_large_payload(self):
        big = 4 << 20

        def seg(comm):
            yield from comm.bcast(1, algorithm="scatter_allgather",
                                  size=big)

        def binom(comm):
            yield from comm.bcast(1, algorithm="binomial", size=big)

        # Segmented pipeline carries ~2*size/p per link vs log p full-size
        # hops for the binomial tree.
        assert timed_collective(seg, nodes=8) < timed_collective(
            binom, nodes=8
        )

    def test_binomial_bcast_wins_small_payload(self):
        def seg(comm):
            yield from comm.bcast(1, algorithm="scatter_allgather", size=8)

        def binom(comm):
            yield from comm.bcast(1, algorithm="binomial", size=8)

        assert timed_collective(binom, nodes=8) < timed_collective(
            seg, nodes=8
        )

    def test_rabenseifner_wins_large_payload(self):
        big = 4 << 20

        def rab(comm):
            yield from comm.allreduce(1, algorithm="rabenseifner",
                                      size=big)

        def rd(comm):
            yield from comm.allreduce(1, algorithm="recursive_doubling",
                                      size=big)

        assert timed_collective(rab, nodes=8) < timed_collective(
            rd, nodes=8
        )

    def test_recursive_doubling_wins_small_payload(self):
        def rab(comm):
            yield from comm.allreduce(1, algorithm="rabenseifner", size=8)

        def rd(comm):
            yield from comm.allreduce(1, algorithm="recursive_doubling",
                                      size=8)

        # Same round count, but Rabenseifner's extra allgather phase is
        # pure overhead for latency-bound payloads.
        assert timed_collective(rd, nodes=8) <= timed_collective(
            rab, nodes=8
        )
