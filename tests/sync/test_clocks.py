"""Unit tests for GlobalClockLM and flatten/unflatten."""

import pytest

from repro.simtime.drift import ConstantDrift
from repro.simtime.hardware import HardwareClock
from repro.sync.clocks import (
    GlobalClockLM,
    base_hardware_clock,
    dummy_global_clock,
    flatten_clock,
    flattened_size_bytes,
    unflatten_clock,
)
from repro.sync.linear_model import LinearDriftModel


def hw(offset=100.0, skew=1e-5):
    return HardwareClock(offset=offset, drift=ConstantDrift(skew))


class TestGlobalClockLM:
    def test_dummy_is_identity(self):
        base = hw()
        clk = dummy_global_clock(base)
        assert clk.model == LinearDriftModel.ZERO
        for t in (0.0, 5.0, 50.0):
            assert clk.read(t) == base.read(t)

    def test_model_applied(self):
        base = hw(offset=0.0, skew=0.0)
        clk = GlobalClockLM(base, LinearDriftModel(slope=0.0, intercept=2.0))
        assert clk.read(10.0) == pytest.approx(8.0)

    def test_invert_roundtrip(self):
        clk = GlobalClockLM(
            hw(offset=42.0, skew=2e-5),
            LinearDriftModel(slope=1e-5, intercept=-3.0),
        )
        for t in (0.0, 1.0, 123.456):
            assert clk.invert(clk.read(t)) == pytest.approx(t, abs=1e-9)

    def test_nested_invert_roundtrip(self):
        clk = GlobalClockLM(
            GlobalClockLM(hw(), LinearDriftModel(5e-6, 1.0)),
            LinearDriftModel(-2e-6, 0.5),
        )
        for t in (0.0, 7.7, 300.0):
            assert clk.invert(clk.read(t)) == pytest.approx(t, abs=1e-9)

    def test_properties_delegate(self):
        base = HardwareClock(granularity=1e-9, read_overhead=3e-8)
        clk = dummy_global_clock(base)
        assert clk.granularity == 1e-9
        assert clk.read_overhead == 3e-8


class TestFlattenUnflatten:
    def test_flatten_orders_outermost_first(self):
        inner = LinearDriftModel(1e-6, 1.0)
        outer = LinearDriftModel(2e-6, 2.0)
        clk = GlobalClockLM(GlobalClockLM(hw(), inner), outer)
        assert flatten_clock(clk) == [outer.as_tuple(), inner.as_tuple()]

    def test_flatten_hardware_clock_empty(self):
        assert flatten_clock(hw()) == []

    def test_roundtrip_same_readings(self):
        base = hw(offset=77.0, skew=-1e-5)
        clk = GlobalClockLM(
            GlobalClockLM(base, LinearDriftModel(1e-6, 0.5)),
            LinearDriftModel(-3e-6, -0.25),
        )
        rebuilt = unflatten_clock(base, flatten_clock(clk))
        for t in (0.0, 2.5, 60.0):
            assert rebuilt.read(t) == pytest.approx(clk.read(t), abs=1e-12)

    def test_unflatten_onto_other_base(self):
        # The whole point of ClockPropSync: same models, receiver's base.
        base_a = hw(offset=10.0)
        base_b = hw(offset=10.0)
        clk = GlobalClockLM(base_a, LinearDriftModel(1e-6, 0.1))
        rebuilt = unflatten_clock(base_b, flatten_clock(clk))
        assert base_hardware_clock(rebuilt) is base_b
        assert rebuilt.read(5.0) == pytest.approx(clk.read(5.0))

    def test_size_bytes(self):
        assert flattened_size_bytes([]) == 8
        assert flattened_size_bytes([(0.0, 0.0)] * 3) == 48


class TestStackHelpers:
    def test_stack_depth(self):
        """flatten_clock lists one model per layer of the stack."""
        base = hw()
        assert len(flatten_clock(base)) == 0
        assert len(flatten_clock(dummy_global_clock(base))) == 1
        assert len(flatten_clock(
            GlobalClockLM(dummy_global_clock(base), LinearDriftModel.ZERO)
        )) == 2
