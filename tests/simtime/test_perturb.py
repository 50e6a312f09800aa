"""Tests for clock perturbation wrappers (steps and excursions)."""

import pytest

from repro.errors import ClockError
from repro.simtime.drift import ConstantDrift
from repro.simtime.hardware import HardwareClock
from repro.simtime.perturb import ExcursionDrift, SteppedClock


def ideal_clock(offset: float = 0.0, skew: float = 0.0) -> HardwareClock:
    """An exactly readable clock: reading = offset + (1 + skew) * t."""
    return HardwareClock(
        offset=offset,
        drift=ConstantDrift(skew),
        segment_length=1.0,
        granularity=0.0,
        read_overhead=0.0,
    )


class TestSteppedClock:
    def test_reading_unchanged_before_step(self):
        clock = SteppedClock(ideal_clock(), [(10.0, 5.0)])
        assert clock.read(9.999) == pytest.approx(9.999)

    def test_step_applies_at_exact_time(self):
        clock = SteppedClock(ideal_clock(), [(10.0, 5.0)])
        assert clock.read(10.0) == pytest.approx(15.0)
        assert clock.read(12.0) == pytest.approx(17.0)

    def test_steps_accumulate(self):
        clock = SteppedClock(ideal_clock(), [(10.0, 5.0), (20.0, 2.0)])
        assert clock.read(25.0) == pytest.approx(32.0)

    def test_backward_step_makes_clock_non_monotonic(self):
        clock = SteppedClock(ideal_clock(), [(10.0, -5.0)])
        assert clock.read(9.5) == pytest.approx(9.5)
        assert clock.read(10.5) == pytest.approx(5.5)

    def test_invert_round_trip_each_region(self):
        clock = SteppedClock(ideal_clock(), [(10.0, 5.0), (20.0, -2.0)])
        # Readings first attained at these times invert exactly.
        for t in (0.0, 5.0, 10.0, 15.0, 23.0, 30.0):
            assert clock.invert(clock.read_raw(t)) == pytest.approx(t)
        # t=20 re-attains the reading first shown at t=18 (backward step),
        # so inversion returns the earliest occurrence.
        assert clock.invert(clock.read_raw(20.0)) == pytest.approx(18.0)

    def test_invert_inside_forward_jump_resolves_to_step_instant(self):
        clock = SteppedClock(ideal_clock(), [(10.0, 5.0)])
        # Readings in [10, 15) are skipped by the jump; the clock first
        # attains them exactly at the step time.
        assert clock.invert(12.0) == pytest.approx(10.0)

    def test_invert_repeated_reading_resolves_to_first_occurrence(self):
        clock = SteppedClock(ideal_clock(), [(10.0, -5.0)])
        # Reading 7 happens at t=7 and again at t=12; earliest wins.
        assert clock.invert(7.0) == pytest.approx(7.0)

    def test_invert_unattained_reading_raises(self):
        clock = SteppedClock(ideal_clock(offset=100.0), [(10.0, 5.0)])
        with pytest.raises(ClockError):
            clock.invert(50.0)

    def test_skew_and_granularity_delegate(self):
        inner = HardwareClock(
            offset=1.0, drift=ConstantDrift(1e-5), segment_length=1.0,
            granularity=1e-6, read_overhead=2e-8,
        )
        clock = SteppedClock(inner, [(5.0, 1.0)])
        assert clock.granularity == 1e-6
        assert clock.read_overhead == 2e-8
        # Between steps the clock runs at the inner clock's rate.
        rate = clock.read_raw(3.5) - clock.read_raw(2.5)
        assert rate == pytest.approx(1.0 + 1e-5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SteppedClock(ideal_clock(), [])
        with pytest.raises(ValueError):
            SteppedClock(ideal_clock(), [(-1.0, 5.0)])


class TestExcursionDrift:
    def test_flat_excursion_integrates_linearly(self):
        drift = ExcursionDrift(
            ConstantDrift(0.0), [(10.0, 20.0, 1e-5, "flat")],
            segment_length=1.0,
        )
        clock = HardwareClock(
            offset=0.0, drift=drift, segment_length=1.0,
            granularity=0.0, read_overhead=0.0,
        )
        # 10 segments inside the window, each 1e-5 fast.
        assert clock.read(20.0) - 20.0 == pytest.approx(1e-4)
        # Nothing accumulates outside the window.
        assert clock.read(10.0) == pytest.approx(10.0)
        assert clock.read(30.0) - clock.read(20.0) == pytest.approx(10.0)

    def test_triangle_excursion_integrates_to_half_area(self):
        drift = ExcursionDrift(
            ConstantDrift(0.0), [(10.0, 20.0, 1e-5, "triangle")],
            segment_length=1.0,
        )
        clock = HardwareClock(
            offset=0.0, drift=drift, segment_length=1.0,
            granularity=0.0, read_overhead=0.0,
        )
        # Triangle of height delta over length 10 -> area delta * 10 / 2.
        assert clock.read(20.0) - 20.0 == pytest.approx(5e-5)

    def test_excursion_adds_to_inner_skew(self):
        drift = ExcursionDrift(
            ConstantDrift(2e-6), [(0.0, 10.0, 3e-6, "flat")],
            segment_length=1.0,
        )
        assert drift.skew_for_segment(0) == pytest.approx(5e-6)
        assert drift.skew_for_segment(10) == pytest.approx(2e-6)

    def test_clock_invert_still_exact(self):
        drift = ExcursionDrift(
            ConstantDrift(0.0), [(5.0, 15.0, 1e-5, "triangle")],
            segment_length=1.0,
        )
        clock = HardwareClock(
            offset=3.0, drift=drift, segment_length=1.0,
            granularity=0.0, read_overhead=0.0,
        )
        for t in (0.0, 7.5, 12.0, 20.0):
            assert clock.invert(clock.read_raw(t)) == pytest.approx(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExcursionDrift(ConstantDrift(0.0), [], segment_length=0.0)
        with pytest.raises(ValueError):
            ExcursionDrift(
                ConstantDrift(0.0), [(5.0, 5.0, 1e-5, "flat")],
                segment_length=1.0,
            )
        with pytest.raises(ValueError):
            ExcursionDrift(
                ConstantDrift(0.0), [(5.0, 10.0, 1e-5, "sawtooth")],
                segment_length=1.0,
            )
