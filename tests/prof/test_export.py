"""Exporter tests: speedscope schema, profile.json invariants, tables."""

from __future__ import annotations

import json

import pytest

from repro.prof.core import Profiler
from repro.prof.export import (
    PROFILE_JSON,
    SPEEDSCOPE_JSON,
    SPEEDSCOPE_SCHEMA,
    flatten,
    format_table,
    profile_dict,
    speedscope_document,
    top_zones,
    write_profile,
)
from tests.prof.test_core import FakeClock


@pytest.fixture
def prof() -> Profiler:
    p = Profiler(clock=FakeClock(step=100))
    with p.zone("sim.run"):
        with p.zone("engine.run"):
            with p.zone("engine.send"):
                pass
            p.add("net.delay", 250, count=5)
        with p.zone("check.finalize"):
            pass
    with p.zone("report"):
        pass
    return p


class TestProfileDict:
    def test_self_times_sum_to_total(self, prof):
        doc = profile_dict(prof)
        assert doc["format"] == "repro-profile"
        assert doc["unit"] == "nanoseconds"
        assert sum(z["self_ns"] for z in doc["zones"]) == doc["total_ns"]

    def test_rows_carry_path_and_depth(self, prof):
        rows = {r["path"]: r for r in flatten(prof)}
        assert rows["sim.run/engine.run/engine.send"]["depth"] == 2
        assert rows["sim.run/engine.run/net.delay"]["count"] == 5
        assert rows["sim.run"]["depth"] == 0

    def test_meta_embedded(self, prof):
        doc = profile_dict(prof, meta={"seed": 7})
        assert doc["meta"] == {"seed": 7}


def _validate_speedscope(doc: dict) -> None:
    """Structural checks from the published speedscope file format."""
    assert doc["$schema"] == SPEEDSCOPE_SCHEMA
    frames = doc["shared"]["frames"]
    assert frames and all("name" in f for f in frames)
    assert doc["activeProfileIndex"] == 0
    (profile,) = doc["profiles"]
    assert profile["type"] == "evented"
    assert profile["startValue"] == 0
    events = profile["events"]
    # Events reference valid frames, times are monotone, O/C balance.
    stack = []
    last = 0
    for event in events:
        assert event["type"] in ("O", "C")
        assert 0 <= event["frame"] < len(frames)
        assert event["at"] >= last
        last = event["at"]
        if event["type"] == "O":
            stack.append(event["frame"])
        else:
            assert stack.pop() == event["frame"]
    assert stack == []
    assert profile["endValue"] == last


class TestSpeedscope:
    def test_document_is_valid(self, prof):
        _validate_speedscope(speedscope_document(prof))

    def test_end_value_covers_total(self, prof):
        doc = speedscope_document(prof)
        assert doc["profiles"][0]["endValue"] >= prof.total_ns()

    def test_empty_profiler(self):
        doc = speedscope_document(Profiler())
        assert doc["profiles"][0]["events"] == []
        assert doc["profiles"][0]["endValue"] == 0

    def test_children_wider_than_parent_still_nest(self):
        # add() can account more child time than the parent's inclusive
        # time (e.g. counted against a zone that also self-reports); the
        # exporter must still emit a well-formed nesting.
        p = Profiler(clock=FakeClock())
        with p.zone("parent"):
            p.add("child", 10_000)
        _validate_speedscope(speedscope_document(p))


class TestTables:
    def test_format_table_orders_by_self_time(self, prof):
        lines = format_table(prof, top=3).splitlines()
        assert "zone" in lines[0]
        assert len(lines) == 5  # header + 3 rows + coverage footer
        assert "cover" in lines[-1]

    def test_top_zones_ranked(self, prof):
        rows = top_zones(prof, top=100)
        selfs = [r["self_ns"] for r in rows]
        assert selfs == sorted(selfs, reverse=True)


class TestWriteProfile:
    def test_writes_both_artifacts(self, prof, tmp_path):
        json_path, ss_path = write_profile(
            prof, str(tmp_path / "out"), meta={"targets": ["fig3"]}
        )
        assert json_path.endswith(PROFILE_JSON)
        assert ss_path.endswith(SPEEDSCOPE_JSON)
        with open(json_path) as fh:
            doc = json.load(fh)
        assert doc["meta"] == {"targets": ["fig3"]}
        assert sum(z["self_ns"] for z in doc["zones"]) == doc["total_ns"]
        with open(ss_path) as fh:
            _validate_speedscope(json.load(fh))
