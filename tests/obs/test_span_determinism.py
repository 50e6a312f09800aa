"""Traced campaigns: determinism across --jobs and vs untraced goldens.

Two contracts at once:

* attaching a span recorder must not perturb the simulation — a traced
  fig3/fig4 quick campaign reproduces the committed untraced goldens
  byte-for-byte;
* the recorder's own output is deterministic under the parallel
  executor — the analyzed critical paths from ``--jobs 1`` and
  ``--jobs 2`` serialize identically (run segmentation via
  ``run_break`` keeps per-job seq namespaces apart in both modes).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.context import run_context
from repro.experiments import fig3_flat_algorithms, fig4_hier_jupiter
from repro.experiments.common import summary_json
from repro.obs.causal import analyze_recorder
from repro.obs.spans import SpanRecorder

GOLDEN_DIR = Path(__file__).parent.parent / "experiments" / "golden"

TARGETS = {
    "fig3": fig3_flat_algorithms,
    "fig4": fig4_hier_jupiter,
}


@lru_cache(maxsize=None)
def _traced(name: str, jobs: int) -> tuple[str, str]:
    """(campaign summary json, analyses json) of a traced quick run."""
    recorder = SpanRecorder()
    with run_context(sink=recorder):
        result = TARGETS[name].run(scale="quick", seed=0, jobs=jobs)
    analyses = analyze_recorder(recorder)
    return (
        summary_json(result),
        json.dumps(analyses, indent=2, sort_keys=True),
    )


@pytest.mark.parametrize("name", sorted(TARGETS))
class TestTracedDeterminism:
    def test_tracing_reproduces_untraced_golden(self, name):
        golden = (GOLDEN_DIR / f"{name}_quick_seed0.json").read_text()
        summary, analyses_text = _traced(name, jobs=1)
        assert summary == golden
        analyses = json.loads(analyses_text)
        assert analyses, "a traced campaign must yield analyzed runs"
        assert all(a["open_edges"] == 0 for a in analyses)
        assert all(a["edges"] > 0 for a in analyses)

    def test_jobs_2_matches_jobs_1_bytes(self, name):
        summary_1, analyses_1 = _traced(name, jobs=1)
        summary_2, analyses_2 = _traced(name, jobs=2)
        assert summary_2 == summary_1
        assert analyses_2 == analyses_1


class TestTracedDepthShape:
    def test_fig3_separates_tree_from_flat(self):
        analyses = json.loads(_traced("fig3", jobs=1)[1])
        by_alg: dict[str, list[dict]] = {}
        for entry in analyses:
            for alg in entry["depth"]["algorithms"]:
                by_alg.setdefault(alg, []).append(entry["depth"])
        assert "jk" in by_alg
        tree_algs = [a for a in by_alg if a != "jk"]
        assert tree_algs
        p = analyses[0]["p"]
        for depth in by_alg["jk"]:
            assert depth["level_depth"] == p - 1
        for alg in tree_algs:
            for depth in by_alg[alg]:
                assert depth["level_depth"] < p - 1
                assert depth["ratio"] <= 1.0
