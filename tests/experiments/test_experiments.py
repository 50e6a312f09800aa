"""Quick-scale smoke + shape tests for each paper experiment.

These assert the *qualitative* shapes the paper reports (who is faster,
who is more accurate, which barrier wins) — the absolute values are
simulator-scale, not testbed values.  EXPERIMENTS.md records both.
"""

from dataclasses import replace

import pytest

from repro.experiments import (
    fig2_drift,
    fig3_flat_algorithms,
    fig4_hier_jupiter,
    fig5_hier_hydra,
    fig6_hier_titan,
    fig7_barrier_impact,
    fig8_imbalance,
    fig9_roundtime,
    fig10_tracing,
    table1_machines,
)
from repro.experiments.common import QUICK


TINY = replace(QUICK, num_nodes=6, ranks_per_node=2, nmpiruns=2,
               nfitpoints=10)


@pytest.fixture(scope="module")
def fig4_tiny():
    """Fig. 4 at TINY, shared by its own test and Fig. 6's comparison."""
    return fig4_hier_jupiter.run(TINY, seed=3)


class TestTable1:
    def test_rows_and_calibration(self):
        rows = table1_machines.run()
        assert [r.name for r in rows] == ["jupiter", "hydra", "titan"]
        jup = rows[0]
        # Paper: IB QDR ping-pong latency is 3-4 us on Jupiter.
        assert 2.5 < jup.measured_pingpong_us < 6.0
        out = table1_machines.format_result(rows)
        assert "jupiter" in out


class TestFig2:
    def test_drift_linear_short_nonlinear_long(self):
        res = fig2_drift.run(num_nodes=4, duration=60.0, interval=1.0,
                             seed=1)
        assert res.r2_short_window > 0.9
        # A 10 s fit extrapolated to 60 s misses by tens of microseconds.
        assert res.max_extrapolation_error > 5e-6
        assert "Fig. 2" in fig2_drift.format_result(res)


class TestFig3:
    def test_jk_slower_hca_family_fast(self):
        res = fig3_flat_algorithms.run(TINY, seed=2)
        by = res.by_label()
        jk = next(l for l in by if l.startswith("jk"))
        hca3 = next(l for l in by if l.startswith("hca3"))
        assert res.mean_duration(jk) > 1.3 * res.mean_duration(hca3)
        # Everyone is accurate right after the sync (well below 5 us).
        for label in by:
            assert res.mean_offset(label, 0.0) < 5e-6
        # Offsets grow as time passes.
        for label in by:
            assert res.mean_offset(label, 10.0) > res.mean_offset(label, 0.0)
        assert "Fig. 3" in fig3_flat_algorithms.format_result(res)


class TestFig4and5:
    def test_hierarchical_faster_than_flat(self, fig4_tiny):
        res = fig4_tiny
        by = res.by_label()
        flat = [l for l in by if not l.startswith("Top")]
        hier = [l for l in by if l.startswith("Top")]
        assert flat and hier
        # Compare matched fit-point budgets: hierarchical is faster.
        for f, h in zip(sorted(flat), sorted(hier)):
            assert res.mean_duration(h) < res.mean_duration(f)
            # ... without losing accuracy right after the sync.
            assert res.mean_offset(h, 0.0) < 5e-6

    def test_hydra_variant_runs(self):
        res = fig5_hier_hydra.run(TINY, seed=4)
        assert res.machine == "hydra"
        assert res.nprocs == TINY.nprocs * 2  # doubled ranks per node
        # Very accurate right after the sync (OmniPath's low latency),
        # visibly degraded after 10 s (fast-changing drift).
        for label in res.by_label():
            assert res.mean_offset(label, 0.0) < 3e-6
            assert res.mean_offset(label, 10.0) > res.mean_offset(label, 0.0)
        assert "Fig. 5" in fig5_hier_hydra.format_result(res)


class TestFig6:
    def test_titan_scale_and_sampling(self, fig4_tiny):
        tiny6 = replace(TINY, num_nodes=4, nmpiruns=1)
        res = fig6_hier_titan.run(tiny6, seed=5)
        assert res.machine == "titan"
        assert res.nprocs == 4 * 4 * TINY.ranks_per_node
        # The large machine shows larger offsets than Jupiter's runs at
        # the same waiting time (compare Fig. 4).
        titan = sorted(res.by_label())[0]
        jupiter = sorted(fig4_tiny.by_label())[0]
        assert res.mean_offset(titan, 10.0) > fig4_tiny.mean_offset(jupiter, 10.0)
        assert "Fig. 6" in fig6_hier_titan.format_result(res)


class TestFig7:
    def test_barrier_algorithm_affects_reported_latency(self):
        res = fig7_barrier_impact.run(TINY, seed=6)
        # The same operation measured under different barriers differs by
        # far more than run-to-run noise for at least one suite.
        for suite in ("osu", "imb"):
            for msize in (4, 8, 16):
                cells = [res.cells[(suite, msize, b)]
                         for b in fig7_barrier_impact.BARRIERS]
                assert max(cells) > 1.05 * min(cells)

    def test_tree_wins_most_cells(self):
        res = fig7_barrier_impact.run(TINY, seed=6)
        wins = sum(
            res.best_barrier(s, m) == "tree"
            for s in fig7_barrier_impact.SUITES
            for m in fig7_barrier_impact.MSIZES
        )
        assert wins >= 5  # paper: 9/9; quick scale tolerates a few upsets


class TestFig8:
    def test_ordering_tree_best_double_ring_worst(self):
        res = fig8_imbalance.run(TINY, seed=7, ncalls=40, nmpiruns=2)
        means = {a: res.mean(a) for a in fig8_imbalance.ALGORITHMS}
        assert min(means, key=means.get) == "tree"
        assert max(means, key=means.get) == "double_ring"
        assert means["double_ring"] > 2 * means["tree"]
        assert "Fig. 8" in fig8_imbalance.format_result(res)


class TestFig9:
    def test_osu_inflated_at_small_sizes(self):
        # Two mpiruns: the size-4 vs size-1024 inflation ordering is a
        # mean effect and too noisy to pin on a single simulated run.
        res = fig9_roundtime.run(TINY, seed=8, nmpiruns=2,
                                 msizes=(4, 8, 1024))
        assert res.inflation(4) > 1.1
        # Relative inflation shrinks for the largest payload.
        assert res.inflation(1024) < res.inflation(4)
        assert "Fig. 9" in fig9_roundtime.format_result(res)


class TestFig10:
    def test_visibility_matrix(self):
        res = fig10_tracing.run(TINY, seed=9)
        # Local clock_gettime: events invisible.
        assert res.visibility("clock_gettime", "local") < 1e-6
        # Global clocks: events visible regardless of source.
        assert res.visibility("clock_gettime", "global") > 0.05
        assert res.visibility("gettimeofday", "global") > 0.05
        # Local gettimeofday sits in between: visible but skewed.
        assert (res.spread("gettimeofday", "local")
                > 3 * res.spread("gettimeofday", "global"))
        assert "Fig. 10" in fig10_tracing.format_result(res)
