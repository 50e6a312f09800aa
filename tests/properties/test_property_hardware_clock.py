"""Property-based tests for hardware clocks and the clock stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockError
from repro.simtime.base import quantize
from repro.simtime.drift import ConstantDrift, RandomWalkDrift, SinusoidalDrift
from repro.simtime.hardware import HardwareClock
from repro.sync.clocks import (
    GlobalClockLM,
    flatten_clock,
    unflatten_clock,
)
from repro.sync.linear_model import LinearDriftModel


def clocks():
    return st.builds(
        lambda offset, skew, seed, seglen: HardwareClock(
            offset=offset,
            drift=RandomWalkDrift(
                initial_skew=skew,
                sigma=1e-7,
                rng=np.random.default_rng(seed),
            ),
            segment_length=seglen,
        ),
        offset=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        skew=st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
        seglen=st.floats(min_value=0.05, max_value=5.0),
    )


def drifts(seglen):
    """One of the three drift families, for a clock of ``seglen``."""
    skews = st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False)
    return st.one_of(
        st.builds(ConstantDrift, skew=skews),
        st.builds(
            lambda skew, seed: RandomWalkDrift(
                initial_skew=skew, sigma=1e-7,
                rng=np.random.default_rng(seed),
            ),
            skew=skews, seed=st.integers(min_value=0, max_value=2**31),
        ),
        st.builds(
            lambda skew, period: SinusoidalDrift(
                mean_skew=skew, amplitude=5e-6, period=period,
                segment_length=seglen,
            ),
            skew=skews, period=st.floats(min_value=10.0, max_value=600.0),
        ),
    )


@st.composite
def quantized_clocks(draw):
    seglen = draw(st.floats(min_value=0.05, max_value=5.0))
    return HardwareClock(
        offset=draw(st.floats(min_value=0.0, max_value=1e5)),
        drift=draw(drifts(seglen)),
        segment_length=seglen,
        granularity=draw(st.sampled_from([0.0, 1e-9, 1e-6, 3.3e-7, 1e-3])),
    )


class TestReadIsOneBody:
    """``HardwareClock.read`` writes ``quantize(read_raw(t), g)`` out."""

    @given(
        clk=quantized_clocks(),
        times=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=80)
    def test_read_is_quantized_read_raw_bit_for_bit(self, clk, times):
        # Drawn order, so the segment table grows forwards and is then
        # re-read backwards, as a run's clock reads do.
        for t in times:
            assert clk.read(t) == quantize(clk.read_raw(t), clk.granularity)
        many = clk.read_many(np.array(times))
        assert many.tolist() == [clk.read(t) for t in times]

    @given(clk=quantized_clocks(), t=st.floats(max_value=-1e-12, min_value=-10))
    @settings(max_examples=10)
    def test_negative_time_still_rejected(self, clk, t):
        with pytest.raises(ClockError):
            clk.read(t)


class TestHardwareClockProperties:
    @given(clk=clocks(), t=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=60)
    def test_invert_is_left_inverse_of_read(self, clk, t):
        assert abs(clk.invert(clk.read_raw(t)) - t) < 1e-6

    @given(
        clk=clocks(),
        t1=st.floats(min_value=0.0, max_value=200.0),
        t2=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=60)
    def test_strictly_monotone(self, clk, t1, t2):
        lo, hi = sorted((t1, t2))
        if hi - lo < 1e-9:  # below float resolution at these magnitudes
            return
        assert clk.read_raw(lo) < clk.read_raw(hi)

    @given(clk=clocks(), t=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=40)
    def test_rate_bounded_by_skew_envelope(self, clk, t):
        dt = 1e-3
        rate = (clk.read_raw(t + dt) - clk.read_raw(t)) / dt
        # |skew| stays within initial ± max_excursion (20 ppm default)
        # plus the ±1e-4 initial range.
        assert 1 - 2e-4 < rate < 1 + 2e-4


class TestClockStackProperties:
    @given(
        clk=clocks(),
        layers=st.lists(
            st.tuples(
                st.floats(min_value=-1e-4, max_value=1e-4,
                          allow_nan=False),
                st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False),
            ),
            min_size=0,
            max_size=4,
        ),
        t=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_flatten_unflatten_roundtrip(self, clk, layers, t):
        stacked = clk
        for slope, intercept in layers:
            stacked = GlobalClockLM(stacked,
                                    LinearDriftModel(slope, intercept))
        rebuilt = unflatten_clock(clk, flatten_clock(stacked))
        got = rebuilt.read(t)
        want = stacked.read(t)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @given(
        clk=clocks(),
        slope=st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False),
        intercept=st.floats(min_value=-10.0, max_value=10.0,
                            allow_nan=False),
        reading_offset=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_global_clock_invert_consistent(self, clk, slope, intercept,
                                            reading_offset):
        g = GlobalClockLM(clk, LinearDriftModel(slope, intercept))
        reading = g.read(0.0) + reading_offset
        t = g.invert(reading)
        assert abs(g.read(t) - reading) < 1e-5
