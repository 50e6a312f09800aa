"""Property tests for the adversarial scenario registry.

The fuzzer's own strategies (:mod:`repro.scenarios.strategies`) define
what "a random scenario" means, so the properties run over exactly that
distribution:

* every adversary and scenario round-trips through ``to_dict`` /
  ``from_dict`` (and JSON) unchanged — the contract that makes fuzzer
  repro files replayable;
* every strategy-produced instance validates against the job shape it
  was drawn for (the fuzzer never wastes budget on rejected inputs),
  and churn-keyed scenarios stay valid on every churned round shape;
* validation rejection is symmetric: shrinking the job below an
  adversary's keys always raises ``ConfigurationError``.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ConfigurationError
from repro.faults.model import fault_from_dict
from repro.faults.schedule import FaultSchedule
from repro.scenarios.strategies import (
    CELL_LABELS,
    adversaries,
    byzantine_adversaries,
    cells,
    churn_adversaries,
    congestion_adversaries,
    delay_attack_adversaries,
    link_faults,
    region_adversaries,
    scenarios,
)
from repro.sync.registry import algorithm_from_label
from tests.conftest import json_round_trip

#: Reference job shape the plain adversary strategies are keyed to.
NUM_NODES = 4
RANKS_PER_NODE = 2
NUM_RANKS = NUM_NODES * RANKS_PER_NODE

any_adversary = adversaries(NUM_RANKS, NUM_NODES)

SETTINGS = settings(max_examples=100, deadline=None)


class TestAdversaryRoundTrips:
    @given(adv=any_adversary)
    @SETTINGS
    def test_dict_round_trip(self, adv):
        assert fault_from_dict(adv.to_dict()) == adv

    @given(adv=any_adversary)
    @SETTINGS
    def test_json_round_trip(self, adv):
        """to_dict output survives real JSON, not just dict copying."""
        data = json.loads(json.dumps(adv.to_dict()))
        assert fault_from_dict(data) == adv

    @given(adv=any_adversary)
    @SETTINGS
    def test_round_trip_is_not_identity_blind(self, adv):
        """The reconstructed instance behaves, not just compares, the
        same: window membership agrees at the boundary instants."""
        twin = fault_from_dict(adv.to_dict())
        for t in (0.0, adv.start, adv.start + 1e-9, 1.0, 1e9):
            assert twin.active(t) == adv.active(t)


class TestStrategyValidity:
    @given(adv=byzantine_adversaries(NUM_RANKS))
    @SETTINGS
    def test_byzantine_fit_their_shape(self, adv):
        assert adv.validate(num_ranks=NUM_RANKS) is adv
        assert all(1 <= r < NUM_RANKS for r in adv.ranks)

    @given(adv=delay_attack_adversaries(NUM_RANKS))
    @SETTINGS
    def test_delay_attacks_fit_their_shape(self, adv):
        assert adv.validate(num_ranks=NUM_RANKS) is adv
        assert all(src != dst for src, dst in adv.links)

    @given(adv=congestion_adversaries(NUM_RANKS))
    @SETTINGS
    def test_congestion_fits_its_shape(self, adv):
        assert adv.validate(num_ranks=NUM_RANKS) is adv
        assert adv.level is not None or adv.links

    @given(adv=region_adversaries(NUM_NODES))
    @SETTINGS
    def test_regions_partition_every_node(self, adv):
        assert adv.validate(num_nodes=NUM_NODES) is adv
        for node in range(NUM_NODES):
            region = adv.region_of(node, NUM_NODES)
            assert region in adv.regions
            assert adv.latency_between(region, region) == 0.0

    @given(adv=churn_adversaries(NUM_NODES))
    @SETTINGS
    def test_churn_stays_inside_bounds(self, adv):
        assert adv.validate(num_nodes=NUM_NODES) is adv
        for round_idx in range(8):
            nodes = adv.nodes_at(round_idx, NUM_NODES)
            assert adv.min_nodes <= nodes <= NUM_NODES

    @given(fault=link_faults(NUM_RANKS))
    @SETTINGS
    def test_fault_schedules_fit_their_shape(self, fault):
        assert fault.validate(num_ranks=NUM_RANKS, horizon=1.0) is fault


class TestScenarioProperties:
    @given(scenario=scenarios(NUM_RANKS, NUM_NODES))
    @SETTINGS
    def test_scenarios_validate_and_round_trip(self, scenario):
        assert scenario.validate(
            num_ranks=NUM_RANKS, num_nodes=NUM_NODES
        ) is scenario
        assert json_round_trip(scenario) == scenario

    @given(scenario=scenarios(NUM_RANKS, NUM_NODES))
    @SETTINGS
    def test_churned_scenarios_valid_on_floor_shape(self, scenario):
        """Rank/link keys drawn alongside churn stay valid on the
        smallest round the churn can produce."""
        for churn in scenario.of_kind("churn"):
            floor_nodes = min(
                churn.nodes_at(i, NUM_NODES) for i in range(8)
            )
            scenario.validate(
                num_ranks=floor_nodes * RANKS_PER_NODE,
                num_nodes=floor_nodes,
            )

    @given(scenario=scenarios(NUM_RANKS, NUM_NODES), shrink=st.just(1))
    @SETTINGS
    def test_rank_keyed_scenarios_reject_tiny_jobs(self, scenario, shrink):
        """Any scenario keying a rank >= 1 must refuse a 1-rank job."""
        keyed = any(
            getattr(adv, "ranks", ()) or getattr(adv, "links", ())
            for adv in scenario
        )
        if not keyed:
            return
        with pytest.raises(ConfigurationError):
            scenario.validate(num_ranks=shrink)


class TestCellProperties:
    @given(cell=cells())
    @SETTINGS
    def test_cells_are_json_primitive_and_self_consistent(self, cell):
        """A drawn cell is exactly a repro-file payload: pure JSON, a
        known label, and a scenario valid for its own shape."""
        assert json.loads(json.dumps(cell)) == cell
        assert cell["label"] in CELL_LABELS
        num_ranks = cell["num_nodes"] * cell["ranks_per_node"]
        FaultSchedule.from_dict(cell["scenario"]).validate(
            num_ranks=num_ranks, num_nodes=cell["num_nodes"]
        )

    @pytest.mark.parametrize("label", CELL_LABELS)
    def test_every_fuzzed_label_resolves(self, label):
        assert algorithm_from_label(label) is not None
