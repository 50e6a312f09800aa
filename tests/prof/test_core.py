"""Unit tests for the profiler zone tree (repro.prof.core).

A fake nanosecond clock (fixed step per read) makes every duration
deterministic, so the tests assert exact zone times instead of ranges.
"""

from __future__ import annotations

import pytest

from repro.context import current_context, run_context
from repro.prof.core import Profiler, Zone, profiled
from tests.conftest import find_zone


class FakeClock:
    """perf_counter_ns stand-in: advances ``step`` ns per read."""

    def __init__(self, step: int = 10) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


@pytest.fixture
def prof() -> Profiler:
    return Profiler(clock=FakeClock())


class TestZoneStack:
    def test_push_pop_accumulates(self, prof):
        start = prof.push("a")
        prof.pop(start)
        zone = find_zone(prof, "a")
        assert zone.count == 1
        # One clock read at push, one at pop: 10ns elapsed.
        assert zone.total_ns == 10
        assert prof.depth == 0

    def test_nesting_builds_tree(self, prof):
        with prof.zone("outer"):
            with prof.zone("inner"):
                pass
            with prof.zone("inner"):
                pass
        outer = find_zone(prof, "outer")
        inner = find_zone(prof, "outer", "inner")
        assert outer.count == 1
        assert inner.count == 2
        assert find_zone(prof, "inner") is None  # nested, not top-level

    def test_self_ns_excludes_children(self, prof):
        with prof.zone("outer"):
            with prof.zone("inner"):
                pass
        outer = find_zone(prof, "outer")
        inner = find_zone(prof, "outer", "inner")
        assert outer.self_ns() == outer.total_ns - inner.total_ns
        assert inner.self_ns() == inner.total_ns

    def test_reentry_aggregates_same_node(self, prof):
        for _ in range(3):
            with prof.zone("hot"):
                pass
        assert find_zone(prof, "hot").count == 3
        assert find_zone(prof, "hot").total_ns == 30

    def test_total_ns_sums_top_level(self, prof):
        with prof.zone("a"):
            pass
        with prof.zone("b"):
            with prof.zone("c"):
                pass
        assert prof.total_ns() == (
            find_zone(prof, "a").total_ns + find_zone(prof, "b").total_ns
        )

    def test_add_accounts_leaf_without_stack(self, prof):
        with prof.zone("outer"):
            prof.add("leaf", 123, count=2)
        leaf = find_zone(prof, "outer", "leaf")
        assert leaf.total_ns == 123
        assert leaf.count == 2

    def test_tick_counts_without_time(self, prof):
        prof.tick("rounds")
        prof.tick("rounds", count=4)
        zone = find_zone(prof, "rounds")
        assert zone.count == 5
        assert zone.total_ns == 0

    def test_zone_closes_on_exception(self, prof):
        with pytest.raises(RuntimeError):
            with prof.zone("boom"):
                raise RuntimeError
        assert prof.depth == 0
        assert find_zone(prof, "boom").count == 1


class TestWalkAndSerialize:
    def test_walk_is_depth_first_sorted(self, prof):
        with prof.zone("b"):
            with prof.zone("z"):
                pass
            with prof.zone("a"):
                pass
        with prof.zone("a"):
            pass
        paths = [path for path, _ in prof.walk()]
        assert paths == [("a",), ("b",), ("b", "a"), ("b", "z")]

    def test_roundtrip_dict(self, prof):
        with prof.zone("outer"):
            with prof.zone("inner"):
                pass
        clone = Profiler.from_dict(prof.to_dict())
        assert clone.to_dict() == prof.to_dict()
        assert find_zone(clone, "outer", "inner").count == 1

    def test_merge_from_aggregates_paths(self):
        a, b = Profiler(clock=FakeClock()), Profiler(clock=FakeClock())
        with a.zone("run"):
            a.add("leaf", 100)
        with b.zone("run"):
            b.add("leaf", 50)
            b.add("other", 7)
        a.merge_from(b)
        assert find_zone(a, "run").count == 2
        assert find_zone(a, "run", "leaf").total_ns == 150
        assert find_zone(a, "run", "other").total_ns == 7
        # b is untouched by the merge.
        assert find_zone(b, "run", "leaf").total_ns == 50

    def test_zone_from_dict_tolerates_missing_fields(self):
        zone = Zone.from_dict({"name": "x"})
        assert (zone.count, zone.total_ns, zone.children) == (0, 0, {})


class TestDefaultProfiler:
    def test_default_is_none(self):
        assert current_context().profiler is None

    def test_context_installs_and_restores(self):
        prof = Profiler()
        with run_context(profiler=prof) as installed:
            assert installed.profiler is prof
            assert current_context().profiler is prof
        assert current_context().profiler is None

    def test_profiled_decorator_noop_without_default(self):
        calls = []

        @profiled("deco.zone")
        def fn(x):
            calls.append(x)
            return x + 1

        assert fn(1) == 2
        assert calls == [1]

    def test_profiled_decorator_records_under_default(self):
        @profiled("deco.zone")
        def fn():
            return 42

        prof = Profiler(clock=FakeClock())
        with run_context(profiler=prof):
            assert fn() == 42
        assert find_zone(prof, "deco.zone").count == 1
        assert find_zone(prof, "deco.zone").total_ns == 10
