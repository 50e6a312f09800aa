"""Chrome trace-event export: schema, ordering, clock remapping."""

import json

import pytest

from repro.cluster.netmodels import infiniband_qdr
from repro.obs.chrome_trace import (
    chrome_trace_json,
    engine_events_to_chrome,
    export_chrome_trace,
    trace_events_to_chrome,
)
from repro.context import run_context
from repro.obs.events import RecordingSink
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync.hierarchical import h2hca
from repro.trace.tracer import TraceEvent, Tracer
from tests.conftest import run_spmd

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)


def traced_run(seed=2):
    """One synced+traced mini-run; returns (trace events, sink, clocks)."""
    alg = h2hca(nfitpoints=6, fitpoint_spacing=1e-3)
    sink = RecordingSink()

    def main(ctx, comm):
        clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
        tracer = Tracer(clk, comm.rank)

        def op(c):
            yield from c.allreduce(1)

        for _ in range(4):
            yield from tracer.trace(comm, "MPI_Allreduce", op)
        events = yield from tracer.gather_events(comm)
        return events, clk

    with run_context(sink=sink):
        sim, res = run_spmd(main, num_nodes=2, ranks_per_node=2,
                            network=infiniband_qdr(), time_source=QUIET,
                            seed=seed)
    merged = res.values[0][0]
    global_clocks = [clk for (_ev, clk) in res.values]
    return merged, sink, sim.clocks, global_clocks


def assert_valid_schema(records):
    assert records, "empty trace"
    for r in records:
        assert r["ph"] in {"B", "E", "X", "i", "C", "s", "f"}
        assert isinstance(r["ts"], (int, float))
        assert "pid" in r and "tid" in r
        if r["ph"] in {"B", "X", "i", "C"}:
            assert r["name"]
        if r["ph"] == "X":
            assert r["dur"] >= 0.0
        if r["ph"] in {"s", "f"}:
            # Flow events bind by id; a finish must attach to the
            # enclosing slice's end ("bp": "e") to anchor the arrow.
            assert isinstance(r["id"], int)
            if r["ph"] == "f":
                assert r["bp"] == "e"


class TestSchema:
    def test_export_both_forms_valid(self, tmp_path):
        merged, sink, hw_clocks, global_clocks = traced_run()
        raw = tmp_path / "raw.json"
        remapped = tmp_path / "global.json"
        n_raw = export_chrome_trace(
            raw, trace_events=merged, engine_events=sink.events,
            clock_of=lambda r: hw_clocks[r],
        )
        n_glob = export_chrome_trace(
            remapped, trace_events=merged, engine_events=sink.events,
            clock_of=lambda r: global_clocks[r],
        )
        assert n_raw == n_glob > 0
        for path in (raw, remapped):
            records = json.loads(path.read_text())
            assert len(records) == n_raw
            assert_valid_schema(records)

    def test_ts_monotone_per_tid_after_remap(self, tmp_path):
        merged, sink, _hw, global_clocks = traced_run()
        path = tmp_path / "global.json"
        export_chrome_trace(
            path, trace_events=merged, engine_events=sink.events,
            clock_of=lambda r: global_clocks[r],
        )
        records = json.loads(path.read_text())
        last: dict[tuple, float] = {}
        for r in records:
            key = (r["pid"], r["tid"])
            assert r["ts"] >= last.get(key, float("-inf"))
            last[key] = r["ts"]
        assert min(r["ts"] for r in records) == 0.0

    def test_collective_stacks_balanced(self):
        _merged, sink, _hw, _glob = traced_run()
        records = engine_events_to_chrome(sink.events)
        per_tid_depth: dict[int, int] = {}
        for r in sorted(records, key=lambda r: r["ts"]):
            if r["ph"] == "B":
                per_tid_depth[r["tid"]] = per_tid_depth.get(r["tid"], 0) + 1
            elif r["ph"] == "E":
                per_tid_depth[r["tid"]] -= 1
                assert per_tid_depth[r["tid"]] >= 0
        assert all(depth == 0 for depth in per_tid_depth.values())


class TestFlowEvents:
    def test_flows_absent_by_default(self):
        _merged, sink, _hw, _glob = traced_run()
        records = engine_events_to_chrome(sink.events)
        assert not [r for r in records if r["ph"] in {"s", "f"}]

    def test_flow_pairs_bind_send_to_deliver(self):
        _merged, sink, _hw, _glob = traced_run()
        records = engine_events_to_chrome(sink.events, include_flows=True)
        assert_valid_schema(records)
        starts = {r["id"]: r for r in records if r["ph"] == "s"}
        finishes = {r["id"]: r for r in records if r["ph"] == "f"}
        assert starts
        # Every finish pairs with a start of the same id (= message seq),
        # pointing from the sender's track to the receiver's, forward in
        # time; sends still in flight at the end have no finish.
        assert set(finishes) <= set(starts)
        deliver_seqs = {
            r["args"]["seq"] for r in records
            if r["ph"] == "i" and r["name"] == "deliver"
        }
        assert set(finishes) == deliver_seqs
        for seq, fin in finishes.items():
            start = starts[seq]
            assert fin["ts"] >= start["ts"]
            assert fin["cat"] == start["cat"] == "p2p.flow"

    def test_flow_sorting_keeps_arrows_after_instants(self, tmp_path):
        _merged, sink, _hw, _glob = traced_run()
        records = engine_events_to_chrome(sink.events, include_flows=True)
        ordered = json.loads(chrome_trace_json(records))
        assert_valid_schema(ordered)
        # On each track, a flow start/finish never precedes the instant
        # it annotates at the same timestamp.
        by_track: dict[tuple, list] = {}
        for r in ordered:
            by_track.setdefault((r["pid"], r["tid"]), []).append(r)
        for rows in by_track.values():
            for prev, nxt in zip(rows, rows[1:]):
                if nxt["ph"] in {"s", "f"} and nxt["ts"] == prev["ts"]:
                    assert prev["ph"] not in {"B", "E"} or prev["ph"] == "B"
        # export_chrome_trace passes the flag through.
        path = tmp_path / "flows.json"
        n = export_chrome_trace(
            path, engine_events=sink.events, include_flows=True
        )
        assert n == len(records)


class TestRemapSemantics:
    def test_remap_requires_true_times(self):
        stale = TraceEvent(name="op", rank=0, iteration=0,
                           start=1.0, end=2.0)
        with pytest.raises(ValueError):
            trace_events_to_chrome([stale], clock_of=lambda r: None)

    def test_raw_vs_remapped_differ_under_skew(self):
        merged, _sink, hw_clocks, global_clocks = traced_run()
        raw = trace_events_to_chrome(
            merged, clock_of=lambda r: hw_clocks[r]
        )
        corrected = trace_events_to_chrome(
            merged, clock_of=lambda r: global_clocks[r]
        )
        raw_ts = [r["ts"] for r in raw]
        corrected_ts = [r["ts"] for r in corrected]
        assert raw_ts != corrected_ts

    def test_empty_records_serialize(self):
        assert chrome_trace_json([]) == "[]"
