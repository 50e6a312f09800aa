"""The adversary kinds of the fault model, case by case.

Construction validation, windows, geometry and the schedule they sit in;
the checks every one of the ten kinds shares are table-driven in
``tests/faults/test_model.py::TestKinds``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.model import (
    FAULT_TYPES,
    ByzantineClockAdversary,
    ChurnAdversary,
    CongestionAdversary,
    DelayAttackAdversary,
    RegionTopologyAdversary,
    fault_from_dict,
)
from repro.faults.scenarios import SCENARIOS, make_scenario
from repro.faults.schedule import DEFAULT_ERROR_BUDGET, FaultSchedule
from tests.conftest import json_round_trip


class TestConstructionValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError, match="start must be >= 0"):
            ByzantineClockAdversary(start=-1.0, bias=1e-3)

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigurationError, match="length must be > 0"):
            ByzantineClockAdversary(length=0.0, bias=1e-3)

    def test_byzantine_must_lie(self):
        with pytest.raises(ConfigurationError, match="must lie somehow"):
            ByzantineClockAdversary(bias=0.0, noise=0.0)

    def test_byzantine_needs_ranks(self):
        with pytest.raises(ConfigurationError, match="needs ranks"):
            ByzantineClockAdversary(ranks=(), bias=1e-3)

    def test_byzantine_negative_rank_rejected(self):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            ByzantineClockAdversary(ranks=(-1,), bias=1e-3)

    def test_delay_attack_must_perturb(self):
        with pytest.raises(ConfigurationError, match="must perturb"):
            DelayAttackAdversary(extra_delay=0.0, factor=1.0, jitter=0.0)

    def test_delay_attack_needs_links(self):
        with pytest.raises(ConfigurationError, match="at least one link"):
            DelayAttackAdversary(links=(), extra_delay=1e-6)

    def test_delay_attack_self_link_rejected(self):
        with pytest.raises(ConfigurationError, match="self-link"):
            DelayAttackAdversary(links=((2, 2),), extra_delay=1e-6)

    def test_congestion_needs_target(self):
        with pytest.raises(ConfigurationError, match="level or explicit"):
            CongestionAdversary(level=None, links=())

    def test_region_must_price_something(self):
        with pytest.raises(ConfigurationError, match="must price"):
            RegionTopologyAdversary(cross_latency=0.0)

    def test_region_pair_key_must_be_sorted(self):
        with pytest.raises(ConfigurationError, match="A < B"):
            RegionTopologyAdversary(
                pair_latency=(("NA|EU", 1e-3),), cross_latency=1e-3
            )

    def test_region_pair_key_unknown_region(self):
        with pytest.raises(ConfigurationError, match="unknown regions"):
            RegionTopologyAdversary(
                regions=("EU", "NA"),
                pair_latency=(("AS|EU", 1e-3),),
                cross_latency=1e-3,
            )

    def test_churn_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown churn mode"):
            ChurnAdversary(mode="explode")


class TestWindows:
    def test_default_window_is_whole_run(self):
        adv = ByzantineClockAdversary(bias=1e-3)
        assert adv.active(0.0)
        assert adv.active(1e9)
        assert adv.end == float("inf")

    def test_bounded_window_half_open(self):
        adv = DelayAttackAdversary(start=1.0, length=2.0, extra_delay=1e-6)
        assert not adv.active(0.999)
        assert adv.active(1.0)
        assert adv.active(2.999)
        assert not adv.active(3.0)

    def test_start_beyond_horizon_rejected(self):
        adv = CongestionAdversary(start=10.0)
        with pytest.raises(ConfigurationError, match="would never fire"):
            adv.validate(horizon=10.0)
        assert adv.validate(horizon=10.5) is adv


class TestJobShapeValidation:
    def test_byzantine_rank_out_of_range(self):
        adv = ByzantineClockAdversary(ranks=(5,), bias=1e-3)
        with pytest.raises(ConfigurationError, match="targets rank 5"):
            adv.validate(num_ranks=4)
        assert adv.validate(num_ranks=6) is adv

    def test_delay_attack_link_out_of_range(self):
        adv = DelayAttackAdversary(links=((4, 0),), extra_delay=1e-6)
        with pytest.raises(ConfigurationError, match=r"targets link \(4, 0\)"):
            adv.validate(num_ranks=4)

    def test_congestion_links_checked_only_when_keyed(self):
        by_level = CongestionAdversary(level="REMOTE")
        assert by_level.validate(num_ranks=2) is by_level
        keyed = CongestionAdversary(level=None, links=((7, 0),))
        with pytest.raises(ConfigurationError, match="targets link"):
            keyed.validate(num_ranks=4)

    def test_churn_floor_must_fit(self):
        adv = ChurnAdversary(min_nodes=4)
        with pytest.raises(ConfigurationError, match="keeps min 4 nodes"):
            adv.validate(num_nodes=2)
        assert adv.validate(num_nodes=4) is adv


class TestRegionGeometry:
    def test_blocked_assignment_contiguous(self):
        adv = RegionTopologyAdversary(
            regions=("NA", "EU"), cross_latency=1e-3
        )
        assert [adv.region_of(n, 4) for n in range(4)] == \
            ["NA", "NA", "EU", "EU"]

    def test_round_robin_assignment(self):
        adv = RegionTopologyAdversary(
            regions=("NA", "EU"), assignment="round_robin",
            cross_latency=1e-3,
        )
        assert [adv.region_of(n, 4) for n in range(4)] == \
            ["NA", "EU", "NA", "EU"]

    def test_latency_between_uses_pair_override(self):
        adv = RegionTopologyAdversary(
            regions=("NA", "EU", "AS"),
            cross_latency=5e-3,
            pair_latency=(("AS|NA", 20e-3),),
        )
        assert adv.latency_between("NA", "NA") == 0.0
        assert adv.latency_between("NA", "EU") == 5e-3
        # Order-insensitive, keyed by the sorted pair.
        assert adv.latency_between("NA", "AS") == 20e-3
        assert adv.latency_between("AS", "NA") == 20e-3


class TestChurnSchedule:
    def test_flap_alternates(self):
        adv = ChurnAdversary(mode="flap", period=1, drop=2, min_nodes=2)
        assert [adv.nodes_at(i, 4) for i in range(4)] == [4, 2, 4, 2]

    def test_flap_respects_period(self):
        adv = ChurnAdversary(mode="flap", period=2, drop=1, min_nodes=2)
        assert [adv.nodes_at(i, 4) for i in range(6)] == [4, 4, 3, 3, 4, 4]

    def test_shrink_floors_at_min_nodes(self):
        adv = ChurnAdversary(mode="shrink", period=1, drop=1, min_nodes=2)
        assert [adv.nodes_at(i, 5) for i in range(6)] == [5, 4, 3, 2, 2, 2]

    def test_grow_caps_at_base(self):
        adv = ChurnAdversary(mode="grow", period=1, drop=2, min_nodes=2)
        assert [adv.nodes_at(i, 5) for i in range(4)] == [2, 4, 5, 5]


class TestSerialization:
    EXAMPLES = [
        ByzantineClockAdversary(ranks=(1, 3), bias=2e-4, noise=1e-5),
        DelayAttackAdversary(
            links=((1, 0), (2, 0)), extra_delay=1e-4, factor=2.0,
            jitter=1e-5, start=0.5, length=3.0,
        ),
        CongestionAdversary(level=None, links=((0, 1),)),
        RegionTopologyAdversary(
            regions=("AS", "EU", "NA"),
            assignment="round_robin",
            cross_latency=5e-3,
            pair_latency=(("AS|NA", 20e-3),),
        ),
        ChurnAdversary(mode="shrink", period=2, drop=1, min_nodes=3),
    ]

    @pytest.mark.parametrize(
        "adv", EXAMPLES, ids=lambda a: a.kind
    )
    def test_round_trip(self, adv):
        data = adv.to_dict()
        assert data["kind"] == adv.kind
        assert fault_from_dict(data) == adv

    @pytest.mark.parametrize(
        "adv", EXAMPLES, ids=lambda a: a.kind
    )
    def test_dict_is_json_primitive(self, adv):
        import json

        # to_dict must be JSON-serializable without custom encoders.
        assert fault_from_dict(
            json.loads(json.dumps(adv.to_dict()))
        ) == adv

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            fault_from_dict({"kind": "gremlin"})

    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="bad fields"):
            fault_from_dict(
                {"kind": "byzantine_clock", "bias": 1e-3, "bogus": 1}
            )

    def test_registry_covers_all_kinds(self):
        assert set(FAULT_TYPES) == {
            "clock_step", "clock_freq", "link", "nic_storm", "straggler",
            "byzantine_clock", "delay_attack", "congestion",
            "region_topology", "churn",
        }


class TestScenario:
    def test_needs_name(self):
        with pytest.raises(ConfigurationError, match="needs a name"):
            FaultSchedule(name="")

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="budget must be > 0"):
            FaultSchedule(name="s", error_budget=0.0)

    def test_adversaries_sorted_deterministically(self):
        late = DelayAttackAdversary(start=5.0, extra_delay=1e-6)
        early = CongestionAdversary(start=0.0)
        s = FaultSchedule(name="s", faults=[late, early])
        assert s.faults == (early, late)
        # Construction order never matters.
        assert FaultSchedule(name="s", faults=[early, late]) == s

    def test_kind_filters(self):
        s = FaultSchedule(name="s", faults=[
            ByzantineClockAdversary(bias=1e-3),
            ChurnAdversary(),
        ])
        assert len(s.of_kind("byzantine_clock")) == 1
        assert len(s.of_kind("churn")) == 1
        assert s.of_kind("delay_attack") == []
        assert len(s) == 2

    def test_validate_names_first_offender(self):
        s = FaultSchedule(name="s", faults=[
            ByzantineClockAdversary(ranks=(9,), bias=1e-3),
        ])
        with pytest.raises(ConfigurationError, match="targets rank 9"):
            s.validate(num_ranks=4)

    def test_json_round_trip(self):
        for s in (make_scenario("region_tiers"),
                  make_scenario("delay_attack", extra_delay=5e-4)):
            assert json_round_trip(s) == s

    def test_presets_all_valid_on_reference_shape(self):
        for name in SCENARIOS:
            s = make_scenario(name)
            assert s.name == name
            assert s.error_budget == DEFAULT_ERROR_BUDGET
            s.validate(num_ranks=8, num_nodes=4, horizon=100.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario") as exc:
            make_scenario("nope")
        # One registry: the message lists all nine names.
        assert len(SCENARIOS) == 9
        assert all(name in str(exc.value) for name in SCENARIOS)
