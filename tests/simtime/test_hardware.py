"""Unit tests for HardwareClock (piecewise-linear local time)."""

import numpy as np
import pytest

from repro.errors import ClockError
from repro.simtime.drift import ConstantDrift, RandomWalkDrift
from repro.simtime.hardware import HardwareClock


class TestReadRaw:
    def test_identity_clock(self):
        clk = HardwareClock()
        assert clk.read_raw(0.0) == 0.0
        assert clk.read_raw(12.5) == 12.5

    def test_offset_applied(self):
        clk = HardwareClock(offset=100.0)
        assert clk.read_raw(0.0) == 100.0
        assert clk.read_raw(3.0) == 103.0

    def test_constant_skew_accumulates(self):
        clk = HardwareClock(drift=ConstantDrift(1e-3))
        # After 10 true seconds the clock gained 10 ms.
        assert clk.read_raw(10.0) == pytest.approx(10.0 + 10.0 * 1e-3)

    def test_negative_skew(self):
        clk = HardwareClock(drift=ConstantDrift(-1e-3))
        assert clk.read_raw(10.0) == pytest.approx(10.0 - 0.01)

    def test_monotone_across_segments(self):
        rng = np.random.default_rng(0)
        clk = HardwareClock(
            drift=RandomWalkDrift(0.0, 1e-6, rng), segment_length=0.5
        )
        times = np.linspace(0.0, 20.0, 500)
        readings = [clk.read_raw(t) for t in times]
        assert all(b > a for a, b in zip(readings, readings[1:]))

    def test_continuous_at_segment_boundary(self):
        rng = np.random.default_rng(1)
        clk = HardwareClock(
            drift=RandomWalkDrift(0.0, 1e-5, rng), segment_length=1.0
        )
        eps = 1e-9
        for boundary in (1.0, 2.0, 5.0):
            below = clk.read_raw(boundary - eps)
            above = clk.read_raw(boundary + eps)
            assert above - below < 1e-6

    def test_rejects_negative_time(self):
        with pytest.raises(ClockError):
            HardwareClock().read_raw(-0.1)


class TestGranularity:
    def test_quantized_read(self):
        clk = HardwareClock(granularity=1e-6)
        assert clk.read(1.0000004) == pytest.approx(1.0, abs=1e-12)

    def test_zero_granularity_exact(self):
        clk = HardwareClock()
        assert clk.read(1.23456789) == 1.23456789

    def test_read_overhead_property(self):
        clk = HardwareClock(read_overhead=25e-9)
        assert clk.read_overhead == 25e-9


class TestInvert:
    def test_roundtrip_identity(self):
        clk = HardwareClock(offset=5.0)
        for t in (0.0, 0.5, 3.25, 100.0):
            assert clk.invert(clk.read_raw(t)) == pytest.approx(t, abs=1e-12)

    def test_roundtrip_with_drift(self):
        rng = np.random.default_rng(2)
        clk = HardwareClock(
            offset=42.0,
            drift=RandomWalkDrift(5e-6, 1e-7, rng),
            segment_length=0.25,
        )
        for t in np.linspace(0.0, 30.0, 50):
            assert clk.invert(clk.read_raw(t)) == pytest.approx(t, abs=1e-9)

    def test_invert_before_epoch_raises(self):
        clk = HardwareClock(offset=10.0)
        with pytest.raises(ClockError):
            clk.invert(9.0)

    def test_invert_extends_segments(self):
        clk = HardwareClock(drift=ConstantDrift(0.0))
        # Reading far beyond any generated segment must still invert.
        assert clk.invert(1000.0) == pytest.approx(1000.0)


class TestIntrospection:
    def test_skew_at(self):
        """The raw reading advances at 1 + skew around t = 7.5."""
        clk = HardwareClock(drift=ConstantDrift(3e-6))
        rate = (clk.read_raw(7.75) - clk.read_raw(7.25)) / 0.5
        assert rate == pytest.approx(1.0 + 3e-6, abs=1e-12)

    def test_offset_to(self):
        a = HardwareClock(offset=10.0)
        b = HardwareClock(offset=4.0)
        assert a.read_raw(2.0) - b.read_raw(2.0) == pytest.approx(6.0)
        assert b.read_raw(2.0) - a.read_raw(2.0) == pytest.approx(-6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareClock(segment_length=0.0)
        with pytest.raises(ValueError):
            HardwareClock(granularity=-1.0)

    def test_bad_drift_value_rejected(self):
        class BadDrift:
            def skew_for_segment(self, index):
                return 2.0

        clk = HardwareClock(drift=BadDrift())
        with pytest.raises(ClockError):
            clk.read_raw(1.0)
