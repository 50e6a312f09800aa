"""Degradation harness: cell structure, twin identity, preset teeth."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.faults.scenarios import make_scenario
from repro.faults.schedule import FaultSchedule
from repro.analysis.accuracy import SyncRun
from repro.scenarios.runner import CellResult, run_scenario_cell

QUICK = dict(num_nodes=4, ranks_per_node=1, nexchanges=4, rounds=1)
LABEL = "hca/4/skampi_offset/4"


def run_cell(scenario, label=LABEL, **overrides):
    kwargs = {**QUICK, **overrides}
    return run_scenario_cell(scenario, label, seed=0, **kwargs)


class TestCellStructure:
    def test_round_and_cell_shapes(self):
        cell = run_cell(make_scenario("delay_attack"))
        assert cell.scenario == "delay_attack"
        assert cell.label == LABEL
        assert len(cell.baseline) == 1
        assert len(cell.adversarial) == 1
        for r in cell.baseline + cell.adversarial:
            assert r.num_nodes == 4
            assert r.num_ranks == 4
            assert r.duration > 0.0
            assert math.isfinite(r.worst_offset())
        d = cell.to_dict()
        assert d["degradation"] == cell.degradation
        assert d["violations"] == []

    def test_accepts_scenario_dict(self):
        """Repro files feed plain dicts straight into the runner."""
        cell = run_cell(make_scenario("delay_attack").to_dict())
        assert cell.scenario == "delay_attack"

    def test_invalid_shape_rejected_before_running(self):
        bad = make_scenario("byzantine_rank", ranks=(9,))
        with pytest.raises(ConfigurationError, match="targets rank 9"):
            run_cell(bad)


class TestTwinIdentity:
    def test_noop_scenario_matches_baseline_byte_for_byte(self):
        """With no adversaries the injector-bearing adversarial run must
        reproduce the baseline exactly — the identity every degradation
        number is measured against."""
        cell = run_cell(FaultSchedule(name="noop"), rounds=2)
        assert [r.to_dict() for r in cell.adversarial] == \
            [r.to_dict() for r in cell.baseline]
        assert cell.degradation == pytest.approx(1.0)

    def test_same_seed_reproduces_cell(self):
        a = run_cell(make_scenario("delay_attack"))
        b = run_cell(make_scenario("delay_attack"))
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = run_scenario_cell(
            make_scenario("delay_attack"), LABEL, seed=0, **QUICK
        )
        b = run_scenario_cell(
            make_scenario("delay_attack"), LABEL, seed=1, **QUICK
        )
        assert a.to_dict() != b.to_dict()


class TestPresetTeeth:
    """Each preset must measurably damage (or reshape) the run."""

    @pytest.mark.parametrize(
        "name", ["delay_attack", "byzantine_rank", "congested_fabric",
                 "region_tiers"],
    )
    def test_in_run_presets_degrade_accuracy(self, name):
        cell = run_cell(make_scenario(name))
        assert cell.adversarial_max_offset > cell.baseline_max_offset
        assert cell.degradation > 1.0

    def test_byzantine_poisons_ground_truth_by_about_bias(self):
        """A pure-bias lie is self-consistent — it poisons the sync fit
        and the accuracy check's ping-pongs identically, so it cancels
        out of the *measured* offset and only the oracle sees the
        damage.  This is why cells are scored on both axes."""
        cell = run_cell(make_scenario("byzantine_rank", bias=2e-4, noise=0.0))
        truth = cell.ground_truth_error
        base_truth = max(r.ground_truth_error for r in cell.baseline)
        assert truth == pytest.approx(2e-4, rel=0.5)
        assert truth > 10 * base_truth
        assert cell.adversarial_max_offset == pytest.approx(
            cell.baseline_max_offset, rel=0.5
        )

    def test_churn_reshapes_rounds(self):
        cell = run_cell(make_scenario("rank_churn"), rounds=2)
        assert [r.num_nodes for r in cell.baseline] == [4, 4]
        assert [r.num_nodes for r in cell.adversarial] == [4, 2]
        # Round 0 is unreshaped and carries no in-run adversary, so it
        # is byte-identical to its baseline twin.
        assert cell.adversarial[0].to_dict() == cell.baseline[0].to_dict()


class TestScoring:
    def test_blown_budget_recorded(self):
        # Noise keeps the lie inconsistent between the sync fit and the
        # accuracy check, so the measured axis blows its budget too.
        hot = make_scenario("byzantine_rank", bias=5e-3, noise=5e-4)
        tight = FaultSchedule(
            name="tight", faults=hot.faults, error_budget=1e-6
        )
        cell = run_cell(tight)
        assert any(
            v.startswith("error_budget:measured=") for v in cell.violations
        )
        assert any(
            v.startswith("error_budget:ground_truth=")
            for v in cell.violations
        )

    def test_within_budget_is_clean(self):
        cell = run_cell(make_scenario("delay_attack"))
        assert cell.violations == []

    def test_nonfinite_rounds_flagged(self):
        cell = CellResult(
            scenario="s", label=LABEL, seed=0, error_budget=1.0
        )
        cell.adversarial.append(SyncRun(
            label=LABEL, num_nodes=2, num_ranks=2, duration=float("nan"),
        ))
        from repro.scenarios.runner import _score

        _score(cell)
        assert cell.violations == ["nonfinite:adversarial"]
