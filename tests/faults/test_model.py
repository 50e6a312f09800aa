"""Tests for fault types, schedules, and preset scenarios."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.model import (
    FAULT_TYPES,
    ByzantineClockAdversary,
    ChurnAdversary,
    ClockFrequencyFault,
    ClockStepFault,
    CongestionAdversary,
    DelayAttackAdversary,
    LinkFault,
    NicStormFault,
    RegionTopologyAdversary,
    StragglerFault,
    fault_from_dict,
)
from repro.faults.schedule import FaultSchedule
from repro.faults.scenarios import SCENARIOS, make_scenario
from tests.conftest import json_round_trip

ALL_FAULTS = [
    ClockStepFault(start=20.0, step=500e-6, node=1),
    ClockFrequencyFault(start=15.0, length=30.0, skew_delta=8e-6, node=0),
    LinkFault(start=20.0, length=10.0, level="REMOTE", latency_factor=3.0),
    NicStormFault(start=20.0, length=10.0, node=2, gap_factor=6.0),
    StragglerFault(start=20.0, length=15.0, node=1, slowdown=4.0),
]

#: One case per kind of the model: an instance keyed outside a 4-rank /
#: 2-node job, a field override its constructor must refuse, and the job
#: shape ``validate`` must refuse it on (``None``: the kind keys nothing).
KIND_CASES = [
    (ClockStepFault(start=1.0, step=1e-3, node=3),
     {"step": 0.0}, "non-zero",
     {"num_nodes": 2}, "targets node 3"),
    (ClockFrequencyFault(start=1.0, length=5.0, skew_delta=1e-6, node=3),
     {"shape": "sawtooth"}, "unknown excursion shape",
     {"num_nodes": 2}, "targets node 3"),
    (LinkFault(start=1.0, length=5.0, latency_factor=2.0, src=5, dst=0),
     {"outlier_prob": 1.5}, "outlier_prob",
     {"num_ranks": 4}, "src to rank 5"),
    (NicStormFault(start=1.0, length=5.0, node=3),
     {"gap_factor": 1.0}, "gap_factor",
     {"num_nodes": 2}, "targets node 3"),
    (StragglerFault(start=1.0, length=5.0, rank=5, slowdown=2.0),
     {"slowdown": 0.5}, "slowdown must be >= 1",
     {"num_ranks": 4}, "targets rank 5"),
    (ByzantineClockAdversary(ranks=(1, 5), bias=2e-4, noise=1e-5),
     {"noise": -1.0}, "noise must be >= 0",
     {"num_ranks": 4}, "targets rank 5"),
    (DelayAttackAdversary(links=((1, 0), (5, 0)), extra_delay=1e-4,
                          start=0.5, length=3.0),
     {"factor": 0.0}, "factor must be > 0",
     {"num_ranks": 4}, r"targets link \(5, 0\)"),
    (CongestionAdversary(level=None, links=((5, 0),)),
     {"service_time": 0.0}, "service_time must be > 0",
     {"num_ranks": 4}, r"targets link \(5, 0\)"),
    (RegionTopologyAdversary(regions=("AS", "EU", "NA"),
                             pair_latency=(("AS|NA", 20e-3),)),
     {"assignment": "random"}, "unknown region assignment",
     None, None),
    (ChurnAdversary(mode="shrink", period=2, min_nodes=4),
     {"period": 0}, "period must be >= 1",
     {"num_nodes": 2}, "keeps min 4 nodes"),
]
ALL_KINDS = [case[0] for case in KIND_CASES]
per_kind = pytest.mark.parametrize(
    "case", KIND_CASES, ids=lambda case: case[0].kind
)


class TestKinds:
    """What all ten kinds share, checked on each."""

    def test_the_table_covers_the_registry(self):
        assert [f.kind for f in ALL_KINDS] == list(FAULT_TYPES)

    @per_kind
    def test_round_trips_through_dict_and_json(self, case):
        fault = case[0]
        data = fault.to_dict()
        assert data["kind"] == fault.kind
        assert fault_from_dict(data) == fault
        # Real JSON, not just dict copying: tuples come back as lists.
        assert fault_from_dict(json.loads(json.dumps(data))) == fault

    @per_kind
    def test_constructor_range_checks(self, case):
        fault, bad, match = case[:3]
        with pytest.raises(ConfigurationError, match=match):
            dataclasses.replace(fault, **bad)
        with pytest.raises(ConfigurationError, match="start must be >= 0"):
            dataclasses.replace(fault, start=-1.0)
        with pytest.raises(ConfigurationError, match="length must be > 0"):
            dataclasses.replace(fault, length=0.0)

    @per_kind
    def test_validate_checks_the_job_shape(self, case):
        fault, _, _, shape, match = case
        assert fault.validate() is fault  # None bounds skip every check
        if shape is None:
            assert fault.validate(num_ranks=1, num_nodes=1) is fault
            return
        with pytest.raises(ConfigurationError, match=match):
            fault.validate(**shape)
        assert fault.validate(num_ranks=8, num_nodes=4) is fault

    @per_kind
    def test_validate_checks_the_horizon(self, case):
        fault = case[0]
        with pytest.raises(ConfigurationError, match="would never fire"):
            fault.validate(horizon=fault.start)
        assert fault.validate(horizon=fault.start + 0.5) is fault


class TestFaultTypes:
    def test_window_semantics(self):
        f = LinkFault(start=10.0, length=5.0, latency_factor=2.0)
        assert f.end == 15.0
        assert not f.active(9.999)
        assert f.active(10.0)
        assert f.active(14.999)
        assert not f.active(15.0)

    def test_instantaneous_fault_has_zero_duration(self):
        f = ClockStepFault(start=10.0, step=1e-3)
        assert f.duration == 0.0
        assert f.end == 10.0

    def test_targets(self):
        assert ClockStepFault(start=0.0, step=1e-3).target() == "cluster"
        assert ClockStepFault(start=0.0, step=1e-3, node=3).target() == \
            "node:3"
        assert NicStormFault(start=0.0, length=1.0).target() == "all-nics"
        assert LinkFault(start=0.0, length=1.0, level="REMOTE",
                         latency_factor=2.0).target() == "level:REMOTE"
        assert StragglerFault(start=0.0, length=1.0, rank=5, node=1,
                              slowdown=2.0).target() == "rank:5"

    def test_straggler_matching(self):
        by_rank = StragglerFault(start=0.0, length=1.0, rank=2, node=0,
                                 slowdown=2.0)
        assert by_rank.matches(rank=2, node=9)
        assert not by_rank.matches(rank=3, node=0)  # rank wins over node
        by_node = StragglerFault(start=0.0, length=1.0, node=1, slowdown=2.0)
        assert by_node.matches(rank=7, node=1)
        assert not by_node.matches(rank=7, node=0)
        everyone = StragglerFault(start=0.0, length=1.0, slowdown=2.0)
        assert everyone.matches(rank=0, node=0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClockStepFault(start=-1.0, step=1e-3)
        with pytest.raises(ConfigurationError):
            ClockStepFault(start=1.0, step=0.0)
        with pytest.raises(ConfigurationError):
            ClockFrequencyFault(start=1.0, length=0.0, skew_delta=1e-6)
        with pytest.raises(ConfigurationError):
            ClockFrequencyFault(start=1.0, length=5.0, skew_delta=1e-6,
                                shape="sawtooth")
        with pytest.raises(ConfigurationError):
            LinkFault(start=1.0, length=5.0)  # perturbs nothing
        with pytest.raises(ConfigurationError):
            LinkFault(start=1.0, length=5.0, latency_factor=2.0,
                      outlier_prob=1.5)
        with pytest.raises(ConfigurationError):
            NicStormFault(start=1.0, length=5.0, gap_factor=1.0)
        with pytest.raises(ConfigurationError):
            StragglerFault(start=1.0, length=5.0)  # slows nothing

    @pytest.mark.parametrize("fault", ALL_FAULTS, ids=lambda f: f.kind)
    def test_dict_round_trip(self, fault):
        assert fault_from_dict(fault.to_dict()) == fault

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            fault_from_dict({"kind": "meteor_strike", "start": 1.0})

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError):
            fault_from_dict({"kind": "clock_step", "start": 1.0,
                             "step": 1e-3, "warp": 9})


class TestFaultSchedule:
    def test_sorted_by_start(self):
        sched = FaultSchedule(name="s", faults=list(reversed(ALL_FAULTS)))
        starts = [f.start for f in sched]
        assert starts == sorted(starts)

    def test_window_spans_all_faults(self):
        sched = FaultSchedule(name="s", faults=ALL_FAULTS)
        assert sched.window() == (15.0, 45.0)
        assert FaultSchedule(name="empty").window() is None

    def test_selectors(self):
        sched = FaultSchedule(name="s", faults=ALL_FAULTS)
        assert len(sched.clock_faults(node=1)) == 1  # step targets node 1
        assert len(sched.clock_faults(node=0)) == 1  # freq targets node 0
        cluster_step = FaultSchedule(
            name="c", faults=[ClockStepFault(start=1.0, step=1e-3)]
        )
        assert len(cluster_step.clock_faults(node=7)) == 1
        for kind in ("link", "nic_storm", "straggler"):
            assert [f.kind for f in sched.of_kind(kind)] == [kind]
        assert cluster_step.of_kind("link") == []

    def test_json_round_trip(self):
        sched = FaultSchedule(name="s", description="d", faults=ALL_FAULTS)
        assert json_round_trip(sched) == sched

    def test_save_load(self, tmp_path):
        """A schedule survives a JSON file, the way the fuzzer's repro
        files carry it."""
        sched = FaultSchedule(name="s", faults=ALL_FAULTS)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sched.to_dict(), sort_keys=True))
        assert FaultSchedule.from_dict(json.loads(path.read_text())) == sched

    def test_needs_name(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(name="")

    def test_from_dict_missing_name(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_dict({"faults": []})

    def test_from_dict_names_unknown_keys(self):
        """A hand-written file in the old two-container layout must not
        load without its adversaries."""
        data = FaultSchedule(name="s", faults=ALL_FAULTS).to_dict()
        data["adversaries"] = [ALL_KINDS[5].to_dict()]
        with pytest.raises(ConfigurationError, match="adversaries"):
            FaultSchedule.from_dict(data)

    def test_json_round_trip_carries_the_budget(self):
        sched = FaultSchedule(name="s", faults=ALL_KINDS, error_budget=1e-3)
        assert json_round_trip(sched).error_budget == 1e-3

    def test_same_kind_entries_keep_their_relative_order(self):
        """Machine faults tie-break on target, adversaries on name, and
        what is left keeps construction order (the sort is stable)."""
        storms = [
            NicStormFault(start=1.0, length=1.0, node=1, name="a"),
            NicStormFault(start=1.0, length=1.0, node=0, name="b"),
        ]
        attacks = [
            DelayAttackAdversary(links=((3, 0),), extra_delay=1e-6),
            DelayAttackAdversary(links=((2, 0),), extra_delay=1e-6),
            DelayAttackAdversary(extra_delay=1e-6, name="a"),
        ]
        sched = FaultSchedule(name="s", faults=storms + attacks)
        assert sched.of_kind("nic_storm") == [storms[1], storms[0]]
        assert sched.of_kind("delay_attack") == [
            attacks[2], attacks[0], attacks[1],
        ]


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_presets_build_and_round_trip(self, name):
        sched = make_scenario(name)
        assert sched.name == name
        assert len(sched) >= 1
        assert json_round_trip(sched) == sched

    def test_overrides(self):
        sched = make_scenario("ntp_step", at=5.0, step=-1e-3, node=0)
        (fault,) = sched
        assert fault.start == 5.0
        assert fault.step == -1e-3
        assert fault.node == 0

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            make_scenario("solar_flare")
