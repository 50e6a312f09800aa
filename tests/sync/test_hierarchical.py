"""Tests for the HlHCA hierarchical synchronization scheme."""

import gc
import weakref

import pytest

from repro.analysis.accuracy import ground_truth_accuracy
from repro.cluster.netmodels import infiniband_qdr
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync import HCA3Sync, SKaMPIOffset
from repro.sync.clockprop import ClockPropagationSync
from repro.sync.hierarchical import HierarchicalSync, h2hca, h3hca
from tests.conftest import run_spmd

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)


def sync_main(alg_factory):
    def main(ctx, comm):
        alg = main.algs.setdefault(ctx.rank, alg_factory())
        t0 = ctx.now
        clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
        return (clk, ctx.now - t0)

    main.algs = {}
    return main


class TestH2HCA:
    @pytest.mark.parametrize("nodes,rpn", [(2, 2), (4, 4), (3, 2)])
    def test_accurate_global_clock(self, nodes, rpn):
        main = sync_main(lambda: h2hca(nfitpoints=12,
                                       fitpoint_spacing=1e-3))
        _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn,
                          network=infiniband_qdr(), time_source=QUIET,
                          seed=5)
        clocks = [v[0] for v in res.values]
        duration = max(v[1] for v in res.values)
        assert ground_truth_accuracy(clocks, duration + 0.1) < 5e-6

    def test_intranode_clocks_identical(self):
        """ClockPropSync clones: all ranks of a node read identically."""
        main = sync_main(lambda: h2hca(nfitpoints=10,
                                       fitpoint_spacing=1e-3))
        _, res = run_spmd(main, num_nodes=2, ranks_per_node=4,
                          network=infiniband_qdr(), time_source=QUIET,
                          seed=6)
        clocks = [v[0] for v in res.values]
        t = 3.0
        for node_start in (0, 4):
            readings = {clocks[node_start + i].read(t) for i in range(4)}
            assert len(readings) == 1

    def test_faster_than_flat_hca3(self):
        flat = sync_main(
            lambda: HCA3Sync(offset_alg=SKaMPIOffset(10), nfitpoints=12,
                             fitpoint_spacing=1e-3)
        )
        hier = sync_main(lambda: h2hca(nfitpoints=12,
                                       fitpoint_spacing=1e-3))
        _, res_flat = run_spmd(flat, num_nodes=4, ranks_per_node=4,
                               network=infiniband_qdr(), time_source=QUIET,
                               seed=7)
        _, res_hier = run_spmd(hier, num_nodes=4, ranks_per_node=4,
                               network=infiniband_qdr(), time_source=QUIET,
                               seed=7)
        d_flat = max(v[1] for v in res_flat.values)
        d_hier = max(v[1] for v in res_hier.values)
        # 4 rounds (log2 16) vs 2 rounds (log2 4) + comm creation + bcast.
        assert d_hier < d_flat

    def test_single_node_degenerates_to_intranode_only(self):
        main = sync_main(lambda: h2hca(nfitpoints=8, fitpoint_spacing=1e-3))
        _, res = run_spmd(main, num_nodes=1, ranks_per_node=4,
                          network=infiniband_qdr(), time_source=QUIET,
                          seed=8)
        clocks = [v[0] for v in res.values]
        assert ground_truth_accuracy(clocks, 1.0) < 1e-9

    def test_comm_cache_reused_within_engine(self):
        def main(ctx, comm):
            alg = main.algs.setdefault(
                ctx.rank, h2hca(nfitpoints=6, fitpoint_spacing=1e-4)
            )
            yield from alg.sync_clocks(comm, ctx.hardware_clock)
            t_mid = ctx.now
            yield from alg.sync_clocks(comm, ctx.hardware_clock)
            return (t_mid, ctx.now - t_mid)

        main.algs = {}
        _, res = run_spmd(main, num_nodes=2, ranks_per_node=2,
                          network=infiniband_qdr(), time_source=QUIET,
                          seed=9)
        # Second sync skips communicator creation: strictly cheaper than
        # the first (which paid for two splits).
        first = max(v[0] for v in res.values)
        second = max(v[1] for v in res.values)
        assert second < first

    def test_reused_instance_does_not_pin_finished_engines(self):
        """One scheme instance shared by every rank of several successive
        simulations (as ``run_latency_benchmark(sync_algorithm=...)``
        callers do) must let each finished engine go — by reference
        counting alone: simulations left for the cycle collector pile up
        between collections and show as peak RSS."""
        alg = h2hca(nfitpoints=6, fitpoint_spacing=1e-4)

        def main(ctx, comm):
            yield from alg.sync_clocks(comm, ctx.hardware_clock)
            return ctx.now

        engines = []
        finals = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(4):
                sim, res = run_spmd(main, num_nodes=4, ranks_per_node=4,
                                    network=infiniband_qdr(), seed=3)
                engines.append(weakref.ref(sim.engine))
                finals.append(res.values)
                del sim, res
            alive = sum(ref() is not None for ref in engines)
        finally:
            gc.enable()
        assert alive <= 1
        # Each simulation rebuilt its communicators from scratch.
        assert all(values == finals[0] for values in finals)


class TestH3HCA:
    def test_three_level_accuracy_with_socket_clocks(self):
        main = sync_main(lambda: h3hca(nfitpoints=10,
                                       fitpoint_spacing=1e-3))
        _, res = run_spmd(main, num_nodes=2, ranks_per_node=4,
                          network=infiniband_qdr(), time_source=QUIET,
                          seed=10, clocks_per="socket")
        clocks = [v[0] for v in res.values]
        duration = max(v[1] for v in res.values)
        assert ground_truth_accuracy(clocks, duration + 0.1) < 10e-6

    def test_h2_clockprop_wrong_with_socket_clocks(self):
        """Paper's semantic-correctness warning: ClockPropSync across
        sockets with per-socket time sources yields an incorrect clock."""
        main = sync_main(lambda: h2hca(nfitpoints=10,
                                       fitpoint_spacing=1e-3))
        _, res = run_spmd(main, num_nodes=2, ranks_per_node=4,
                          network=infiniband_qdr(),
                          time_source=CLOCK_GETTIME,
                          seed=11, clocks_per="socket")
        clocks = [v[0] for v in res.values]
        duration = max(v[1] for v in res.values)
        assert ground_truth_accuracy(clocks, duration + 0.1) > 1e-3


class TestLabels:
    def test_h2_label(self):
        alg = h2hca(nfitpoints=500)
        assert alg.label() == (
            "Top/hca3/500/skampi_offset/10/Bottom/clockpropagation"
        )

    def test_h3_label_has_mid(self):
        alg = h3hca(nfitpoints=100)
        assert "/Mid/" in alg.label()

    def test_custom_levels(self):
        alg = HierarchicalSync(
            inter_node=HCA3Sync(nfitpoints=5),
            intra_node=ClockPropagationSync(),
        )
        assert alg.label().startswith("Top/hca3/")
