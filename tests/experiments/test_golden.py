"""Seed-stability golden tests: fixed seed → byte-identical summaries.

The simulator promises bit-identical results for a fixed seed, across
process counts and (checked here) across code changes: the committed
golden files pin the full-precision campaign summaries of the fig3/fig4
quick targets, and every ``ServicePolicyResult`` field but the volatile
``wall_s`` of the five ``service_slo`` quick cells.  A diff here means
the random-stream layout or the simulation semantics changed — if that
is intentional, regenerate with::

    PYTHONPATH=src python - <<'EOF'
    from tests.experiments.test_golden import GOLDEN_DIR, TARGETS
    for name, (mod, summarize) in TARGETS.items():
        path = GOLDEN_DIR / f"{name}_quick_seed0.json"
        path.write_text(summarize(mod.run(scale="quick", seed=0)))
    EOF

and call the semantics change out in the commit message.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import (
    fig3_flat_algorithms,
    fig4_hier_jupiter,
    service_slo,
)
from repro.experiments.common import campaign_summary, summary_json

GOLDEN_DIR = Path(__file__).parent / "golden"


def service_summary_json(results) -> str:
    """The sweep's results minus ``wall_s``, as deterministic JSON."""
    rows = [dataclasses.asdict(result) for result in results]
    for row in rows:
        row.pop("wall_s")
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


#: Target name -> (experiment module, its canonical summary).
TARGETS = {
    "fig3": (fig3_flat_algorithms, summary_json),
    "fig4": (fig4_hier_jupiter, summary_json),
    "service_slo": (service_slo, service_summary_json),
}


@pytest.mark.parametrize("name", sorted(TARGETS))
class TestGoldenSummaries:
    def test_byte_identical_summary(self, name):
        golden = (GOLDEN_DIR / f"{name}_quick_seed0.json").read_text()
        module, summarize = TARGETS[name]
        assert summarize(module.run(scale="quick", seed=0)) == golden

    def test_parallel_jobs_match_golden(self, name):
        """--jobs N must be bit-identical to --jobs 1 (and the golden)."""
        golden = (GOLDEN_DIR / f"{name}_quick_seed0.json").read_text()
        module, summarize = TARGETS[name]
        assert summarize(module.run(scale="quick", seed=0, jobs=2)) == golden


class TestSummaryShape:
    def test_summary_is_canonical_json(self):
        result = fig3_flat_algorithms.run(scale="quick", seed=0)
        text = summary_json(result)
        data = json.loads(text)
        assert data == campaign_summary(result)
        # Canonical form: sorted keys, trailing newline, stable re-dump.
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert len(data["runs"]) == len(result.runs)

    def test_different_seed_differs(self):
        """The golden test has teeth: another seed changes the bytes."""
        golden = (GOLDEN_DIR / "fig3_quick_seed0.json").read_text()
        other = fig3_flat_algorithms.run(scale="quick", seed=1)
        assert summary_json(other) != golden
