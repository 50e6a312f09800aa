"""Property tests for the observability primitives.

Two deterministic downsamplers back every telemetry number the repo
reports, so their structural invariants get property coverage:

* :class:`~repro.obs.timeseries.TimeSeries` — stride-doubling
  decimation: retention is a pure function of the offered sample
  sequence (sample *i* is retained iff ``i % stride == 0`` for the
  final stride), bounded by ``max_points``, and invariant under
  arbitrary chunking and bank-merge splits.
* :class:`~repro.obs.metrics.Histogram` — the exact scalar summary
  (count/total/min/max) is invariant under splitting the observation
  stream across histograms that are then merged, the reservoir stays
  bounded, and quantiles stay inside ``[min, max]``; the skip sampler
  keeps the same values whether the stream arrives one by one or in
  batches, however the batches are cut.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.obs.timeseries import TimeSeries, TimeSeriesBank

#: Integer-valued samples keep float sums exact under any grouping.
sample_values = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=300
)


def _chunked(items, sizes):
    """Split ``items`` into chunks of the given sizes (remainder last)."""
    out, i = [], 0
    for size in sizes:
        if i >= len(items):
            break
        out.append(items[i:i + size])
        i += size
    if i < len(items):
        out.append(items[i:])
    return out


class TestTimeSeriesDecimation:
    @given(
        values=sample_values,
        max_points=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_retention_invariant(self, values, max_points):
        """Retained points are exactly the stride-multiples of the stream."""
        series = TimeSeries("s", max_points=max_points)
        samples = [(float(i), float(v)) for i, v in enumerate(values)]
        series.extend(samples)
        stride = series.stride
        assert stride >= 1 and stride & (stride - 1) == 0  # power of two
        assert series.count == len(samples)
        assert len(series.points) <= max_points
        expected = [
            samples[i] for i in range(len(samples)) if i % stride == 0
        ]
        assert series.points == expected

    @given(
        values=sample_values,
        max_points=st.integers(min_value=2, max_value=32),
        sizes=st.lists(
            st.integers(min_value=1, max_value=50), max_size=10
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunking_invariance(self, values, max_points, sizes):
        """extend() in arbitrary chunks == append() one at a time."""
        samples = [(float(i), float(v)) for i, v in enumerate(values)]
        one = TimeSeries("s", max_points=max_points)
        for t, v in samples:
            one.append(t, v)
        many = TimeSeries("s", max_points=max_points)
        for chunk in _chunked(samples, sizes):
            many.extend(chunk)
        assert many.points == one.points
        assert many.stride == one.stride
        assert many.count == one.count

    @given(
        values=sample_values,
        max_points=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_bank_adoption_is_structural(self, values, max_points):
        """Merging into an empty bank preserves the series exactly."""
        src = TimeSeriesBank(max_points=max_points)
        for i, v in enumerate(values):
            src.sample("clock.error", float(i), float(v), rank=1)
        dst = TimeSeriesBank(max_points=max_points)
        dst.merge_from(src)
        mine = dst.get("clock.error", rank=1)
        theirs = src.get("clock.error", rank=1)
        assert mine is not theirs
        assert mine.points == theirs.points
        assert mine.stride == theirs.stride
        assert mine.count == theirs.count


class TestHistogramReservoirMerge:
    @given(
        values=sample_values,
        sizes=st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=1, max_size=8,
        ),
        cap=st.integers(min_value=4, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_summary_exact_under_splits(self, values, sizes, cap):
        """count/total/min/max survive any split-then-merge exactly."""
        whole = Histogram(max_samples=cap)
        for v in values:
            whole.observe(float(v))
        merged = Histogram(max_samples=cap)
        for chunk in _chunked(values, sizes):
            part = Histogram(max_samples=cap)
            for v in chunk:
                part.observe(float(v))
            merged.merge(part)
        assert merged.count == whole.count == len(values)
        assert merged.total == whole.total == float(sum(values))
        assert merged.min_value == whole.min_value == float(min(values))
        assert merged.max_value == whole.max_value == float(max(values))
        assert math.isclose(merged.mean, whole.mean)

    @given(values=sample_values, cap=st.integers(min_value=2, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_reservoir_bounded_and_quantiles_in_range(self, values, cap):
        hist = Histogram(max_samples=cap)
        for v in values:
            hist.observe(float(v))
        assert len(hist._samples) <= cap
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            est = hist.quantile(q)
            assert hist.min_value <= est <= hist.max_value

    @given(values=sample_values)
    @settings(max_examples=50, deadline=None)
    def test_quantiles_exact_below_cap(self, values):
        """With no reservoir overflow, q=0/1 are the exact min/max."""
        hist = Histogram(max_samples=1000)
        for v in values:
            hist.observe(float(v))
        assert hist.quantile(0.0) == float(min(values))
        assert hist.quantile(1.0) == float(max(values))


class TestHistogramBatchEquivalence:
    @given(
        values=sample_values,
        sizes=st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=1, max_size=12,
        ),
        cap=st.integers(min_value=1, max_value=64),
        as_array=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_observe_many_is_a_loop_of_observe(
        self, values, sizes, cap, as_array
    ):
        """Any chunking of ``observe_many`` keeps what ``observe`` keeps.

        With up to 300 values, caps of 1..64 and chunks of 0..50, the
        drawn chunkings end before, on, and after the fill point.
        """
        values = [float(v) for v in values]
        looped = Histogram(max_samples=cap)
        for v in values:
            looped.observe(v)
        batched = Histogram(max_samples=cap)
        for chunk in _chunked(values, sizes):
            batched.observe_many(np.array(chunk) if as_array else chunk)
        assert batched._samples == looped._samples
        assert batched.count == looped.count == len(values)
        assert batched.min_value == looped.min_value
        assert batched.max_value == looped.max_value
        assert batched.total == math.fsum(values)
        assert batched._next == looped._next
