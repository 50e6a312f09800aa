"""Critical-path extraction: walk invariants + round-depth pins.

The depth pins are the PR's acceptance bar: a traced p=2048 HCA run
must measure a critical path whose level depth equals the binomial
tree's ceil(log2 p), while flat JK measures Theta(p) — the paper's
structural O(log p) vs O(p) separation, observed empirically from the
causal DAG rather than asserted from the formula.
"""

from __future__ import annotations

from math import ceil, log2

import pytest

from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.obs.causal import (
    analyze_run,
    critical_path,
    expected_depth,
)
from repro.obs.spans import SpanRecorder, SpanRun
from repro.simmpi.simulation import Simulation

EPS = 1e-9


def traced_flat(p: int, label: str, seed: int = 0) -> SpanRun:
    """One traced synchronization of a flat (single-level) algorithm."""
    from repro.sync.registry import algorithm_from_label

    algorithm = algorithm_from_label(label, fitpoint_spacing=1e-3)

    def main(ctx, comm):
        yield from algorithm.sync_clocks(comm, ctx.hardware_clock)
        return ctx.now

    recorder = SpanRecorder()
    sim = Simulation(
        machine=Machine(p // 4, 1, 4, 4), network=infiniband_qdr(),
        seed=seed, sink=recorder,
    )
    sim.run(main)
    recorder.finalize()
    (run,) = recorder.completed_runs()
    return run


class TestDepthPins:
    @pytest.mark.parametrize("p", [16, 64])
    def test_hca_level_depth_is_log2_p(self, p):
        run = traced_flat(p, "hca/4/skampi_offset/2")
        depth = analyze_run(run)["depth"]
        assert depth["level_depth"] == ceil(log2(p))
        assert depth["round_depth"] == depth["level_depth"]
        assert depth["algorithms"] == ["hca"]
        assert depth["ratio"] <= 1.0

    def test_jk_level_depth_is_p_minus_1(self):
        run = traced_flat(16, "jk/4/skampi_offset/2")
        depth = analyze_run(run)["depth"]
        assert depth["level_depth"] == 15
        assert depth["expected"] == 15
        assert depth["ratio"] == 1.0

    def test_hca_depth_at_p_2048_matches_tree_depth(self):
        # Acceptance: traced p=2048 HCA, measured depth == ceil(log2 p).
        analysis = analyze_run(traced_flat(2048, "hca/4/skampi_offset/2"))
        depth = analysis["depth"]
        assert depth["level_depth"] == ceil(log2(2048)) == 11
        assert depth["ratio"] <= 1.0
        assert depth["algorithms"] == ["hca"]
        assert analysis["open_edges"] == 0

    def test_jk_depth_at_p_2048_is_theta_p(self):
        # Acceptance: flat JK's path visits every one of the p-1 rounds.
        run = traced_flat(2048, "jk/4/skampi_offset/2")
        depth = analyze_run(run)["depth"]
        assert depth["level_depth"] == 2047
        assert depth["expected"] == 2047
        assert depth["ratio"] == 1.0


class TestWalkInvariants:
    @pytest.fixture(scope="class")
    def run(self):
        return traced_flat(16, "hca/4/skampi_offset/2")

    def test_segments_tile_the_run_window_exactly(self, run):
        segments = critical_path(run)
        assert segments
        assert segments[0].start == 0.0
        assert segments[-1].end == run.t_end
        assert segments[-1].rank == run.end_rank
        for prev, nxt in zip(segments, segments[1:]):
            assert abs(prev.end - nxt.start) < EPS
            assert prev.duration >= -EPS
        length = segments[-1].end - segments[0].start
        assert abs(length - run.duration()) < EPS

    def test_path_dominates_every_on_path_edge(self, run):
        segments = critical_path(run)
        length = segments[-1].end - segments[0].start
        msg_segments = [s for s in segments if s.kind == "msg"]
        assert msg_segments, "a sync round must put messages on the path"
        for seg in msg_segments:
            edge = run.edges[seg.seq]
            assert edge.waited
            assert seg.rank == edge.dst and seg.src == edge.src
            assert length + EPS >= seg.duration

    def test_round_windows_are_self_consistent(self, run):
        analysis = analyze_run(run)
        assert analysis["rounds"]
        for row in analysis["rounds"]:
            total = row["path_msg_s"] + row["path_compute_s"]
            assert abs(total - row["duration_s"]) < 1e-6
            assert row["duration_s"] + EPS >= row["max_edge_s"]
            assert row["segments"] >= 1

    def test_analysis_is_json_ready_and_attributed(self, run):
        import json

        analysis = analyze_run(run)
        json.dumps(analysis)  # no exotic types
        cp = analysis["critical_path"]
        total_kinds = sum(cp["by_kind_s"].values())
        assert abs(total_kinds - cp["length_s"]) < 1e-6
        assert cp["top_links"] == sorted(
            cp["top_links"], key=lambda r: (-r["seconds"], r["link"])
        )
        # Attribution is innermost-phase: the offset measurement nests
        # inside the learn round, so it owns the path's sync time.
        assert "sync.offset" in cp["by_phase_s"]


class TestExpectedDepth:
    def test_tree_vs_flat_bounds(self):
        assert expected_depth(16, {("hca", "")}) == 6   # log2(16) + 2
        assert expected_depth(16, {("jk", "")}) == 15   # p - 1
        assert expected_depth(2048, {("hca", "")}) == 13

    def test_mixed_levels_sum(self):
        pairs = {("hca2", "intranode"), ("hca2", "internode")}
        assert expected_depth(16, pairs) == 12

    def test_degenerate_inputs(self):
        assert expected_depth(1, {("hca", "")}) == 1
        assert expected_depth(16, set()) == 1


class TestEmptyRun:
    def test_analyze_empty_run_is_stable(self):
        run = SpanRun(0)
        analysis = analyze_run(run)
        assert analysis["critical_path"]["length_s"] == 0.0
        assert analysis["depth"]["level_depth"] == 0
        assert analysis["rounds"] == []
        assert critical_path(run) == []
