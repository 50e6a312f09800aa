"""Unit tests for every sanitizer rule, on synthetic event streams."""

from __future__ import annotations

import pickle

import pytest

from repro.check import (
    MAX_VIOLATIONS,
    CheckReport,
    InvariantViolation,
    SanitizerSink,
    TeeSink,
    Violation,
)
from repro.context import RunContext
from repro.obs import events as ev


def send(time=1.0, rank=0, dest=1, tag=5, size=8, seq=0, sync=False):
    return ev.MsgSend(time=time, rank=rank, dest=dest, tag=tag, size=size,
                      seq=seq, level="remote", synchronous=sync)


def deliver(time=2.0, rank=1, source=0, tag=5, size=8, seq=0):
    return ev.MsgDeliver(time=time, rank=rank, source=source, tag=tag,
                         size=size, seq=seq, latency=1.0)


def rules_of(report: CheckReport) -> list[str]:
    return [v.rule for v in report.violations]


def reporting() -> SanitizerSink:
    return SanitizerSink(mode="report")


class TestMonotonicTime:
    def test_backwards_event_flagged(self):
        s = reporting()
        s.emit(send(time=2.0, seq=0))
        s.emit(ev.ProcWake(time=1.0, rank=0))
        assert "monotonic-time" in rules_of(s.report)

    def test_per_rank_not_global(self):
        """Interleaved ranks may emit at non-monotone *global* times."""
        s = reporting()
        s.emit(send(time=5.0, rank=0, seq=0))
        s.emit(send(time=1.0, rank=1, dest=0, seq=1))
        s.finalize()
        assert "monotonic-time" not in rules_of(s.report)

    def test_fault_inject_exempt(self):
        """FaultInject is emitted a priori at future activation times."""
        s = reporting()
        s.emit(send(time=5.0, rank=0, seq=0))
        s.emit(ev.FaultInject(time=1.0, rank=0, kind="clock_step",
                              name="ntp", target="node 0"))
        s.emit(send(time=6.0, rank=0, seq=1))
        assert rules_of(s.report) == []

    def test_strict_raises_at_event(self):
        s = SanitizerSink(mode="strict")
        s.emit(send(time=2.0, seq=0))
        with pytest.raises(InvariantViolation) as info:
            s.emit(ev.ProcWake(time=1.0, rank=0))
        assert info.value.violation.rule == "monotonic-time"


class TestFifoOrder:
    def test_overtaking_flagged(self):
        s = reporting()
        s.emit(send(time=1.0, seq=0))
        s.emit(send(time=1.1, seq=1))
        s.emit(deliver(time=2.0, seq=1))
        s.emit(deliver(time=2.1, seq=0))
        assert "fifo-order" in rules_of(s.report)

    def test_in_order_clean(self):
        s = reporting()
        s.emit(send(time=1.0, seq=0))
        s.emit(send(time=1.1, seq=1))
        s.emit(deliver(time=2.0, seq=0))
        s.emit(deliver(time=2.1, seq=1))
        assert rules_of(s.report) == []

    def test_different_tags_are_different_channels(self):
        """Matching by a later tag first is legal (MPI non-overtaking is
        per (source, dest, tag))."""
        s = reporting()
        s.emit(send(time=1.0, seq=0, tag=5))
        s.emit(send(time=1.1, seq=1, tag=6))
        s.emit(deliver(time=2.0, seq=1, tag=6))
        s.emit(deliver(time=2.1, seq=0, tag=5))
        assert rules_of(s.report) == []


class TestConservation:
    def test_forged_delivery(self):
        s = reporting()
        s.emit(deliver(seq=42))
        assert "conservation" in rules_of(s.report)

    def test_double_delivery(self):
        s = reporting()
        s.emit(send(seq=0))
        s.emit(deliver(time=2.0, seq=0))
        s.emit(deliver(time=3.0, seq=0))
        assert rules_of(s.report).count("conservation") == 1

    def test_seq_reuse(self):
        s = reporting()
        s.emit(send(time=1.0, seq=0))
        s.emit(send(time=2.0, seq=0))
        assert "conservation" in rules_of(s.report)


class TestMsgIntegrity:
    def test_size_mismatch(self):
        s = reporting()
        s.emit(send(seq=0, size=8))
        s.emit(deliver(seq=0, size=16))
        assert "msg-integrity" in rules_of(s.report)

    def test_tag_mismatch(self):
        s = reporting()
        s.emit(send(seq=0, tag=1))
        s.emit(deliver(seq=0, tag=2))
        assert "msg-integrity" in rules_of(s.report)

    def test_wrong_endpoints(self):
        s = reporting()
        s.emit(send(seq=0, rank=0, dest=1))
        s.emit(deliver(seq=0, rank=1, source=2))
        assert "msg-integrity" in rules_of(s.report)

    def test_delivery_before_send(self):
        s = reporting()
        s.emit(send(time=5.0, seq=0))
        s.emit(deliver(time=1.0, seq=0))
        assert "msg-integrity" in rules_of(s.report)


class TestLifecycle:
    def test_double_block(self):
        s = reporting()
        s.emit(ev.ProcBlock(time=1.0, rank=0, reason="recv", source=1))
        s.emit(ev.ProcBlock(time=2.0, rank=0, reason="recv", source=2))
        assert "lifecycle" in rules_of(s.report)

    def test_wake_without_block(self):
        s = reporting()
        s.emit(ev.ProcWake(time=1.0, rank=0))
        assert "lifecycle" in rules_of(s.report)

    def test_block_wake_block_clean(self):
        s = reporting()
        s.emit(ev.ProcBlock(time=1.0, rank=0, reason="recv", source=1))
        s.emit(ev.ProcWake(time=2.0, rank=0))
        s.emit(ev.ProcBlock(time=3.0, rank=0, reason="ssend", source=1))
        s.emit(ev.ProcWake(time=4.0, rank=0))
        s.finalize()
        assert rules_of(s.report) == []

    def test_resync_rounds_must_ascend(self):
        s = reporting()
        s.emit(ev.ResyncRound(time=1.0, rank=0, round_index=1))
        s.emit(ev.ResyncRound(time=2.0, rank=0, round_index=3))
        assert "lifecycle" in rules_of(s.report)

    def test_still_blocked_at_finalize(self):
        s = reporting()
        s.emit(ev.ProcBlock(time=1.0, rank=0, reason="recv", source=1))
        s.finalize()
        assert "lifecycle" in rules_of(s.report)


class TestCollectiveNesting:
    @staticmethod
    def enter(time, name="MPI_Barrier", comm_id=0, rank=0):
        return ev.CollectiveEnter(time=time, rank=rank, name=name,
                                  comm_id=comm_id, comm_rank=0, comm_size=2)

    @staticmethod
    def exit_(time, name="MPI_Barrier", comm_id=0, rank=0):
        return ev.CollectiveExit(time=time, rank=rank, name=name,
                                 comm_id=comm_id, comm_rank=0, comm_size=2)

    def test_exit_without_enter(self):
        s = reporting()
        s.emit(self.exit_(1.0))
        assert "collective-nesting" in rules_of(s.report)

    def test_mismatched_exit(self):
        s = reporting()
        s.emit(self.enter(1.0, name="MPI_Barrier"))
        s.emit(self.exit_(2.0, name="MPI_Bcast"))
        assert "collective-nesting" in rules_of(s.report)

    def test_nested_lifo_clean(self):
        """dup() runs a barrier inside: inner exits first (LIFO)."""
        s = reporting()
        s.emit(self.enter(1.0, name="MPI_Comm_dup"))
        s.emit(self.enter(1.5, name="MPI_Barrier"))
        s.emit(self.exit_(2.0, name="MPI_Barrier"))
        s.emit(self.exit_(2.5, name="MPI_Comm_dup"))
        s.finalize()
        assert rules_of(s.report) == []

    def test_unclosed_at_finalize(self):
        s = reporting()
        s.emit(self.enter(1.0))
        s.finalize()
        assert "collective-nesting" in rules_of(s.report)


class _FakeEngine:
    """Just enough engine surface for the finalize cross-checks."""

    def __init__(self, sent, delivered, unreceived):
        self._stats = {
            "messages_sent": sent,
            "messages_delivered": delivered,
            "messages_unreceived": unreceived,
        }
        self.metrics = None

    def stats(self):
        return dict(self._stats)


class TestStatsConsistency:
    def test_matching_stats_clean(self):
        s = reporting()
        s.emit(send(time=1.0, seq=0))
        s.emit(deliver(time=2.0, seq=0))
        s.emit(send(time=3.0, seq=1))  # never delivered: unreceived
        s.finalize(_FakeEngine(sent=2, delivered=1, unreceived=1))
        assert rules_of(s.report) == []

    def test_drifted_counter_flagged(self):
        s = reporting()
        s.emit(send(time=1.0, seq=0))
        s.emit(deliver(time=2.0, seq=0))
        s.finalize(_FakeEngine(sent=1, delivered=0, unreceived=0))
        assert "stats-consistency" in rules_of(s.report)


class TestSpanCrossCheck:
    """The sanitizer and a tee'd span recorder must agree on open edges."""

    def _pair(self, events):
        from repro.obs.spans import SpanRecorder

        s = reporting()
        recorder = SpanRecorder()
        tee = TeeSink(s, recorder)
        for event in events:
            tee.emit(event)
        return s, recorder

    def test_agreeing_layers_clean(self):
        s, recorder = self._pair([
            send(time=1.0, seq=0),
            deliver(time=2.0, seq=0),
            send(time=3.0, seq=1),  # still in flight — both layers see it
        ])
        s.finalize(
            _FakeEngine(sent=2, delivered=1, unreceived=1), spans=recorder
        )
        assert rules_of(s.report) == []

    def test_tampered_recorder_flagged(self):
        s, recorder = self._pair([
            send(time=1.0, seq=0),
            deliver(time=2.0, seq=0),
        ])
        # Simulate a recorder that mis-parsed the stream: an edge it
        # thinks is still open that the sanitizer saw delivered.
        recorder.run.open_sends[99] = send(time=1.5, seq=99)
        s.finalize(spans=recorder)
        found = [v for v in s.report.violations
                 if v.rule == "stats-consistency"]
        assert found
        assert found[0].details["stat"] == "open_edges"

    def test_engine_arbitrates_when_present(self):
        s, recorder = self._pair([send(time=1.0, seq=0)])
        # All three layers disagree-free except the engine stat.
        s.finalize(
            _FakeEngine(sent=1, delivered=0, unreceived=0), spans=recorder
        )
        stats_rules = [v.details.get("stat") for v in s.report.violations
                       if v.rule == "stats-consistency"]
        assert "messages_unreceived" in stats_rules


class TestReportMechanics:
    def test_violation_cap(self):
        s = reporting()
        for i in range(MAX_VIOLATIONS + 10):
            s.emit(deliver(time=float(i + 1), seq=i))  # all forged
        assert len(s.report.violations) == MAX_VIOLATIONS
        assert s.report.dropped == 10
        assert not s.report.ok
        assert s.report.total_violations == MAX_VIOLATIONS + 10

    def test_report_round_trip(self):
        """A run's report comes home whole: into a job's isolated context,
        across the pickle a worker process ships it back in, and merged
        into the context-held report."""
        s = reporting()
        s.emit(deliver(seq=7))
        s.finalize()
        ctx = RunContext(check="report",
                         check_report=CheckReport(label=s.report.label))
        job = ctx.isolated()
        job.check_report.merge_from(s.report)
        ctx.merge_from(pickle.loads(pickle.dumps(job)))
        assert ctx.check_report.to_dict() == s.report.to_dict()
        assert not ctx.check_report.ok

    def test_merge_accumulates(self):
        a = CheckReport(runs=1, events_checked=10)
        a.violations.append(Violation(rule="fifo-order", message="x"))
        b = CheckReport(runs=2, events_checked=5)
        a.merge_from(b)
        assert a.runs == 3
        assert a.events_checked == 15
        assert len(a.violations) == 1

    def test_format_text_mentions_rule(self):
        s = reporting()
        s.emit(deliver(seq=9))
        text = s.report.format_text()
        assert "VIOLATIONS" in text and "conservation" in text

    def test_finalize_idempotent(self):
        s = reporting()
        s.emit(ev.ProcBlock(time=1.0, rank=0, reason="recv", source=1))
        s.finalize()
        s.finalize()
        assert s.report.runs == 1
        assert rules_of(s.report).count("lifecycle") == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SanitizerSink(mode="loose")


class TestTeeSink:
    def test_fans_out_and_skips_none(self):
        seen = []

        class Recorder:
            def emit(self, event):
                seen.append(event)

        checker = reporting()
        tee = TeeSink(checker, None, Recorder())
        e = send(seq=0)
        tee.emit(e)
        assert seen == [e]
        assert checker.report.events_checked == 1

    def test_forwards_deadlock_diagnosis(self):
        checker = reporting()
        checker.emit(ev.ProcBlock(time=1.0, rank=0, reason="recv", source=1))
        tee = TeeSink(checker)
        assert "rank 0" in tee.deadlock_diagnosis(engine=None)
