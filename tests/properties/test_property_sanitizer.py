"""Property tests: the whole stack runs sanitizer-clean.

Every collective, every registered sync algorithm, and the
fault-recovery path must satisfy the engine invariant catalog
(:mod:`repro.check`) under randomized topologies, drift models, and
fault schedules — with correct payloads where a ground truth exists.
Strict mode is used throughout: any violation raises
:class:`~repro.errors.InvariantViolation` and fails the test at the
exact faulty event.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accuracy import ground_truth_accuracy
from repro.check import checking
from repro.cluster.netmodels import infiniband_qdr
from repro.faults.evaluate import compare_recovery
from repro.sync.registry import algorithm_from_label
from tests.conftest import assert_clock_sane, run_spmd
from tests.properties.strategies import (
    collective_programs,
    expected_collective_results,
    fault_schedules,
    machine_shapes,
    multi_node_shapes,
    run_collective_program,
    time_sources,
)

#: Every registered algorithm family (flat, propagation, hierarchical).
SYNC_LABELS = [
    "jk/5/skampi_offset/4",
    "hca/5/skampi_offset/4",
    "hca2/recompute_intercept/5/skampi_offset/4",
    "hca3/recompute_intercept/5/skampi_offset/4",
    "clockpropagation",
    # H2HCA / H3HCA as label-driven hierarchical compositions.
    "Top/hca3/5/skampi_offset/4/Bottom/clockpropagation",
    "Top/hca3/5/skampi_offset/4"
    "/Mid/hca2/5/skampi_offset/4/Bottom/clockpropagation",
]


class TestCollectivesSanitizerClean:
    @given(
        shape=machine_shapes,
        seed=st.integers(min_value=0, max_value=1000),
        program=collective_programs,
    )
    @settings(max_examples=25, deadline=None)
    def test_random_collective_program(self, shape, seed, program):
        """Any collective program: invariant-clean AND correct payloads."""
        nodes, rpn = shape
        n = nodes * rpn
        with checking("strict"):
            _, res = run_spmd(
                run_collective_program(program),
                num_nodes=nodes, ranks_per_node=rpn,
                network=infiniband_qdr(), seed=seed,
            )
        assert res.check_report is not None and res.check_report.ok
        for rank, got in enumerate(res.values):
            expected = expected_collective_results(program, n, rank)
            assert [
                list(v) if isinstance(v, (list, tuple)) else v
                for v in got
            ] == [
                list(v) if isinstance(v, (list, tuple)) else v
                for v in expected
            ]


class TestSyncAlgorithmsSanitizerClean:
    @given(
        label=st.sampled_from(SYNC_LABELS),
        shape=multi_node_shapes,
        seed=st.integers(min_value=0, max_value=1000),
        source=time_sources(),
    )
    @settings(max_examples=30, deadline=None)
    def test_sync_clean_and_clock_sane(self, label, shape, seed, source):
        """Every algorithm family: invariant-clean, sane global clocks."""
        nodes, rpn = shape
        algs = {}

        def main(ctx, comm):
            alg = algs.setdefault(
                ctx.rank,
                algorithm_from_label(label, fitpoint_spacing=1e-4),
            )
            t0 = ctx.now
            clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
            return (clk, ctx.now - t0)

        with checking("strict"):
            _, res = run_spmd(
                main, num_nodes=nodes, ranks_per_node=rpn,
                network=infiniband_qdr(), time_source=source, seed=seed,
            )
        assert res.check_report is not None and res.check_report.ok
        duration = max(v[1] for v in res.values)
        for rank, (clk, _) in enumerate(res.values):
            assert_clock_sane(
                clk, duration, duration + 2.0, rank=rank, npoints=32
            )


class TestFaultRecoverySanitizerClean:
    @given(
        shape=st.tuples(
            st.integers(min_value=2, max_value=3),
            st.integers(min_value=1, max_value=2),
        ),
        seed=st.integers(min_value=0, max_value=1000),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_recovery_paths_clean(self, shape, seed, data):
        """Baseline + resync through random fault scenarios, strict."""
        nodes, rpn = shape
        horizon = 12.0
        schedule = data.draw(
            fault_schedules(
                num_nodes=nodes, num_ranks=nodes * rpn, horizon=horizon
            )
        )
        with checking("strict"):
            reports = compare_recovery(
                schedule,
                resync_age=4.0,
                horizon=horizon,
                sample_interval=2.0,
                ensure_interval=3.0,
                num_nodes=nodes,
                ranks_per_node=rpn,
                seed=seed,
            )
        assert set(reports) == {"baseline", "resync"}
        for report in reports.values():
            assert report.phases  # scored, i.e. the runs completed


class TestSyncAccuracyStillHolds:
    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=5, deadline=None)
    def test_h2hca_accuracy_under_checking(self, seed):
        """Checking is passive: a sane config still syncs accurately."""
        algs = {}

        def main(ctx, comm):
            alg = algs.setdefault(
                ctx.rank,
                algorithm_from_label(
                    "Top/hca3/10/skampi_offset/8/Bottom/clockpropagation",
                    fitpoint_spacing=1e-3,
                ),
            )
            t0 = ctx.now
            clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
            return (clk, ctx.now - t0)

        from repro.simtime.sources import CLOCK_GETTIME

        with checking("strict"):
            _, res = run_spmd(
                main, num_nodes=3, ranks_per_node=2,
                network=infiniband_qdr(),
                time_source=CLOCK_GETTIME.with_(skew_walk_sigma=1e-9),
                seed=seed,
            )
        clocks = [v[0] for v in res.values]
        duration = max(v[1] for v in res.values)
        assert ground_truth_accuracy(clocks, duration + 0.1) < 5e-6
