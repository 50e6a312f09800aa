"""Sync-round instrumentation: collectors and algorithm integration."""

import math

from repro.cluster.netmodels import infiniband_qdr
from repro.obs.sync_stats import (
    FitpointSample,
    SyncRoundRecord,
    SyncStatsCollector,
)
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync import HCA3Sync
from repro.sync.hierarchical import h2hca
from tests.conftest import run_spmd

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)


def make_record(level="", client=1, residuals=(1e-7, -2e-7)):
    fitpoints = tuple(
        FitpointSample(timestamp=float(i), offset=1e-6 * i, rtt=2e-6 + i * 1e-7)
        for i in range(3)
    )
    return SyncRoundRecord(
        algorithm="hca3",
        level=level,
        round_index=0,
        ref_rank=0,
        client_rank=client,
        fitpoints=fitpoints,
        slope=1e-6,
        intercept=0.5e-6,
        residuals=residuals,
    )


class TestRecord:
    def test_derived_statistics(self):
        rec = make_record()
        assert rec.nfitpoints == 3
        assert rec.min_rtt == 2e-6
        assert abs(rec.mean_rtt - 2.1e-6) < 1e-12
        assert rec.max_abs_residual == 2e-7

    def test_empty_residuals(self):
        rec = make_record(residuals=())
        assert rec.max_abs_residual == 0.0


class TestCollector:
    def test_filters_and_levels(self):
        coll = SyncStatsCollector()
        coll.record(make_record(level="internode", client=1))
        coll.record(make_record(level="intranode", client=2))
        coll.record(make_record(level="internode", client=3))
        assert len(coll) == 3
        assert coll.levels() == ["internode", "intranode"]
        assert [r.client_rank for r in coll.for_level("internode")] == [1, 3]

    def test_summary_per_level(self):
        coll = SyncStatsCollector()
        coll.record(make_record(level="internode"))
        coll.record(make_record(level=""))
        summary = coll.summary()
        assert set(summary) == {"internode", "flat"}
        inter = summary["internode"]
        assert inter["rounds"] == 1.0
        assert inter["fitpoints"] == 3.0
        assert inter["min_rtt"] == 2e-6
        assert inter["max_abs_residual"] == 2e-7


class TestAlgorithmIntegration:
    def test_hca3_records_rounds(self):
        alg = HCA3Sync(nfitpoints=8, fitpoint_spacing=1e-3)

        def main(ctx, comm):
            yield from alg.sync_clocks(comm, ctx.hardware_clock)

        run_spmd(main, num_nodes=2, ranks_per_node=2,
                 network=infiniband_qdr(), time_source=QUIET, seed=3)
        # Every non-reference rank completed at least one learning round.
        clients = {r.client_rank for r in alg.stats.rounds}
        assert clients == {1, 2, 3}
        for rec in alg.stats.rounds:
            assert rec.algorithm == "hca3"
            assert rec.nfitpoints == 8
            assert rec.min_rtt > 0.0
            assert all(math.isfinite(res) for res in rec.residuals)
            assert rec.max_abs_residual < 1e-3
        summary = alg.sync_stats_summary()
        assert set(summary) == {"flat"}
        assert summary["flat"]["mean_rtt"] > 0.0

    def test_h2hca_labels_levels(self):
        alg = h2hca(nfitpoints=8, fitpoint_spacing=1e-3)

        def main(ctx, comm):
            yield from alg.sync_clocks(comm, ctx.hardware_clock)

        run_spmd(main, num_nodes=2, ranks_per_node=2,
                 network=infiniband_qdr(), time_source=QUIET, seed=4)
        summary = alg.sync_stats_summary()
        # The model-learning level is inter-node; ClockPropSync inside a
        # node clones clocks and learns no models.
        assert set(summary) == {"internode"}
        assert summary["internode"]["rounds"] >= 1.0
        # Only node leaders are clients of the inter-node level.
        clients = {r.client_rank for r in alg.inter_node.stats.rounds}
        assert clients == {2}
