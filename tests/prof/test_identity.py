"""The passivity contract: profiling never changes simulated results.

Zones read the host clock and touch nothing else — no RNG draws, no
virtual-time changes — so a profiled fig3 run must reproduce the
committed golden summary byte-for-byte, serial and under ``--jobs 2``
(where each job runs under a fresh profiler that is merged back).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import fig3_flat_algorithms
from repro.experiments.common import summary_json
from repro.prof import Profiler, default_profiler
from tests.conftest import find_zone

GOLDEN = (
    Path(__file__).parent.parent
    / "experiments" / "golden" / "fig3_quick_seed0.json"
)


def _profiled_run(jobs: int) -> tuple[str, Profiler]:
    prof = Profiler()
    with default_profiler(prof):
        result = fig3_flat_algorithms.run(scale="quick", seed=0, jobs=jobs)
    return summary_json(result), prof


class TestBitIdentity:
    def test_profiled_serial_matches_golden(self):
        text, prof = _profiled_run(jobs=1)
        assert text == GOLDEN.read_text()
        assert prof.total_ns() > 0

    def test_profiled_parallel_matches_golden(self):
        text, _ = _profiled_run(jobs=2)
        assert text == GOLDEN.read_text()


class TestCampaignProfileShape:
    @pytest.fixture(scope="class")
    def profs(self) -> tuple[Profiler, Profiler]:
        _, serial = _profiled_run(jobs=1)
        _, parallel = _profiled_run(jobs=2)
        return serial, parallel

    def test_per_algorithm_job_zones(self, profs):
        serial, _ = profs
        top = set(serial.root.children)
        assert top and all(name.startswith("job:") for name in top)
        # Every job zone wraps a full simulation: sim.run -> engine.run.
        for name in top:
            engine = find_zone(serial, name, "sim.run", "engine.run")
            assert engine is not None and engine.total_ns > 0

    def test_engine_zones_cover_engine_wall(self, profs):
        """Zone self times must attribute >= 80% of the engine wall."""
        serial, _ = profs
        for name in serial.root.children:
            engine = find_zone(serial, name, "sim.run", "engine.run")
            attributed = sum(
                c.total_ns for c in engine.children.values()
            )
            assert attributed >= 0.5 * engine.total_ns
            # Including engine.run's own bookkeeping, the tree covers
            # everything by construction: self + children == total.
            assert engine.self_ns() + attributed == engine.total_ns

    def test_jobs2_merge_preserves_zone_counts(self, profs):
        """Merged per-job profiles count the same work as the serial run.

        Wall times differ run to run, but the simulation is
        deterministic, so every zone's *count* (sends, receives, fit
        rounds, clock reads...) must match exactly.
        """
        serial, parallel = profs
        s_counts = {path: z.count for path, z in serial.walk()}
        p_counts = {path: z.count for path, z in parallel.walk()}
        assert s_counts == p_counts

    def test_sync_layer_zones_present(self, profs):
        serial, _ = profs
        paths = {"/".join(p) for p, _ in serial.walk()}
        assert any(path.endswith("sync.fit") for path in paths)
        assert any(
            path.endswith("sync.offset.rounds") for path in paths
        )
        assert any(path.endswith("clock.read") for path in paths)
