"""Tests for exporting tracer spans as Chrome trace-event JSON."""

import json

import pytest

from repro.obs.chrome_trace import chrome_trace_json, trace_events_to_chrome
from repro.trace.tracer import TraceEvent


def make_events():
    return [
        TraceEvent("MPI_Allreduce", rank=0, iteration=0, start=10.0,
                   end=10.00003),
        TraceEvent("MPI_Allreduce", rank=1, iteration=0, start=10.00001,
                   end=10.00004),
        TraceEvent("MPI_Allreduce", rank=0, iteration=1, start=10.1,
                   end=10.10002),
        TraceEvent("MPI_Allreduce", rank=1, iteration=1, start=10.1,
                   end=10.10003),
    ]


def to_chrome_trace(events):
    return chrome_trace_json(trace_events_to_chrome(events))


class TestChromeTrace:
    def test_valid_json_complete_events(self):
        records = json.loads(to_chrome_trace(make_events()))
        assert len(records) == 4
        for r in records:
            assert r["ph"] == "X"
            assert r["dur"] > 0
            assert r["ts"] >= 0

    def test_timestamps_rebased_to_zero(self):
        records = json.loads(to_chrome_trace(make_events()))
        assert min(r["ts"] for r in records) == 0.0

    def test_tid_is_rank(self):
        records = json.loads(to_chrome_trace(make_events()))
        assert {r["tid"] for r in records} == {0, 1}

    def test_empty(self):
        assert to_chrome_trace([]) == "[]"

    def test_microsecond_unit(self):
        records = json.loads(to_chrome_trace(make_events()))
        e0 = next(r for r in records
                  if r["tid"] == 0 and r["args"]["iteration"] == 0)
        assert e0["dur"] == pytest.approx(30.0, rel=1e-6)
