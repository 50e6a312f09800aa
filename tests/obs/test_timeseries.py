"""Decimating time-series buffer and bank: determinism, scoping, merge."""

from __future__ import annotations

import pytest

from repro.obs.timeseries import (
    SCOPE_SEP,
    TimeSeries,
    TimeSeriesBank,
    split_scope,
)
from repro.context import current_context, run_context


def _samples(n: int) -> list[tuple[float, float]]:
    return [(float(i), float(i * i % 101)) for i in range(n)]


class TestTimeSeries:
    def test_keeps_everything_until_full(self):
        ts = TimeSeries("x", max_points=8)
        ts.extend(_samples(8))
        assert len(ts) == 8
        assert ts.stride == 1
        assert ts.count == 8

    def test_stride_doubles_on_overflow(self):
        ts = TimeSeries("x", max_points=8)
        ts.extend(_samples(9))
        # Compaction kept offered indices 0, 2, 4, 6 and then accepted 8.
        assert ts.stride == 2
        assert ts.times() == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_bounded_forever(self):
        ts = TimeSeries("x", max_points=16)
        ts.extend(_samples(10_000))
        assert len(ts) <= 16
        assert ts.count == 10_000
        # Retained offered indices are exactly the stride multiples.
        assert all(t % ts.stride == 0 for t in ts.times())

    def test_decimation_is_flush_boundary_independent(self):
        # The determinism contract: retention is a pure function of the
        # offered sequence, so one-by-one and arbitrarily-chunked feeds
        # retain identical points.
        data = _samples(1337)
        one_by_one = TimeSeries("x", max_points=32)
        for t, v in data:
            one_by_one.append(t, v)
        chunked = TimeSeries("x", max_points=32)
        i, step = 0, 1
        while i < len(data):
            chunked.extend(data[i:i + step])
            i += step
            step = step % 7 + 1  # irregular chunk sizes
        assert one_by_one.points == chunked.points
        assert one_by_one.stride == chunked.stride

    def test_rejects_tiny_buffers(self):
        with pytest.raises(ValueError):
            TimeSeries("x", max_points=1)


class TestScopes:
    def test_split_scope(self):
        assert split_scope("clock.error") == ("", "clock.error")
        assert split_scope(f"hca/15#0{SCOPE_SEP}clock.error") == (
            "hca/15#0", "clock.error"
        )

    def test_scoped_sampling_and_nesting(self):
        bank = TimeSeriesBank()
        bank.sample("m", 0.0, 1.0)
        with bank.scoped("outer"):
            bank.sample("m", 0.0, 2.0)
            with bank.scoped("inner"):
                bank.sample("m", 0.0, 3.0)
        assert bank.get("m").values() == [1.0]
        assert bank.get(f"outer{SCOPE_SEP}m").values() == [2.0]
        assert bank.get(
            f"outer{SCOPE_SEP}inner{SCOPE_SEP}m"
        ).values() == [3.0]
        assert bank.scope == ""  # restored


class TestBank:
    def test_series_create_on_first_use(self):
        bank = TimeSeriesBank()
        assert bank.series("a") is bank.series("a")
        assert bank.series("a", rank=0) is not bank.series("a", rank=1)

    def test_items_deterministic_order(self):
        bank = TimeSeriesBank()
        bank.sample("b", 0.0, 1.0, rank=1)
        bank.sample("a", 0.0, 1.0)
        bank.sample("b", 0.0, 1.0)
        bank.sample("b", 0.0, 1.0, rank=0)
        keys = [key for key, _ in bank.items()]
        assert keys == [("a", None), ("b", None), ("b", 0), ("b", 1)]

    def test_markers_bounded_and_sorted(self):
        bank = TimeSeriesBank(max_marks=3)
        for i in range(10):
            bank.mark("fault", float(10 - i), f"f{i}")
        marks = bank.marks_named("fault")
        assert len(marks) == 3
        assert [t for _, t, _ in marks] == sorted(t for _, t, _ in marks)

    def test_merge_matches_direct_feed(self):
        # Parent-merge of per-job banks must equal direct sequential
        # sampling when the parent key already exists (replay path).
        direct = TimeSeriesBank(max_points=16)
        split_a = TimeSeriesBank(max_points=16)
        split_b = TimeSeriesBank(max_points=16)
        data = _samples(15)  # fits: merge replay sees every point
        for t, v in data[:7]:
            direct.sample("m", t, v)
            split_a.sample("m", t, v)
        for t, v in data[7:]:
            direct.sample("m", t, v)
            split_b.sample("m", t, v)
        merged = TimeSeriesBank(max_points=16)
        merged.merge_from(split_a)
        merged.merge_from(split_b)
        assert merged.get("m").points == direct.get("m").points

    def test_merge_adopts_absent_keys_structurally(self):
        child = TimeSeriesBank(max_points=8)
        child.sample("m", 0.0, 1.0, rank=2)
        child.mark("fault", 1.0, "boom")
        parent = TimeSeriesBank(max_points=8)
        parent.merge_from(child)
        assert parent.get("m", rank=2).points == [(0.0, 1.0)]
        assert parent.get("m", rank=2) is not child.get("m", rank=2)
        assert parent.marks_named("fault") == [(None, 1.0, "boom")]

    def test_to_dict_round_shape(self):
        bank = TimeSeriesBank()
        bank.sample("m", 1.0, 2.0, rank=0)
        bank.mark("fault", 3.0, "x", rank=1)
        d = bank.to_dict()
        assert d["series"] == [{
            "name": "m", "rank": 0, "count": 1, "stride": 1,
            "points": [[1.0, 2.0]],
        }]
        assert d["markers"] == [
            {"name": "fault", "rank": 1, "marks": [[3.0, "x"]]}
        ]


class TestDefaultBank:
    def test_default_installed_and_restored(self):
        assert current_context().timeseries is None
        with run_context(timeseries=TimeSeriesBank()) as ctx:
            assert current_context().timeseries is ctx.timeseries
        assert current_context().timeseries is None
