"""Runtime simulation sanitizer: invariant checking over the event stream.

The :class:`SanitizerSink` is an :class:`~repro.obs.events.EventSink`
that *verifies* instead of recording: attached to an engine (alone or
tee'd next to a real sink), it checks engine-level invariants on every
emitted event and once more at run end (:meth:`SanitizerSink.finalize`).
It plays the role dynamic MPI correctness checkers (MUST, memcheckers)
play on real runs — the claims of the paper's experiments are only as
good as the discrete-event substrate underneath, and a silent causality
bug would skew every figure.

Invariant catalog (rule names used in violations):

``monotonic-time``
    Per-rank event times never decrease.  Every engine-core event is
    stamped with the emitting process's true time, and a process's time
    line only moves forward; a backward stamp means the causality gate
    (or a mutant) let a process observe the past.  Scheduled
    :class:`~repro.obs.events.FaultInject` records are exempt (they are
    emitted up front, at their future activation times).
``send-order``
    The times of ordered ``MsgSend`` events never decrease; a hand-over
    is exempt.  This is the causality gate's contract: a send mutates
    state shared between ranks (NIC egress/ingress tables, sequence
    numbers, the order of a mailbox across sources), so sends must
    execute in simulated-time order whichever rank issues them.  A
    hand-over is a node-local send to a rank already waiting for it,
    which the engine runs past the gate; the stream shows one as a
    ``MsgSend`` whose ``level`` is not ``"REMOTE"`` while the
    destination's open ``ProcBlock`` has ``reason="recv"``, names this
    sender and accepts its tag.  It neither breaks nor raises the running
    maximum of the ordered sends' times.  ``monotonic-time`` cannot see
    a breach, because each rank's own time line stays monotone when the
    gate lets a rank that is ahead send early.  The rule needs no
    exemption for a lone surviving rank (gate off): when the last other
    rank sent, the survivor was queued at or after that time, or blocked
    and woken by a later arrival.
``fifo-order``
    Per ``(source, dest, tag)`` channel, messages are *matched* in send
    (sequence-number) order — MPI's non-overtaking rule.  Arrival times
    may reorder freely; matching must not.
``conservation``
    Every send is matched by exactly one delivery or is still sitting in
    a mailbox when the run ends: no duplicated, forged, or silently
    dropped messages.  Cross-checked against ``Engine.stats()`` (and the
    metrics registry, when one is attached) at finalize.
``msg-integrity``
    A delivery's endpoints, tag and size must equal its send's, and it
    cannot complete before the send happened.
``lifecycle``
    Block/wake legality: a blocked process cannot block again without a
    wake in between, a wake requires a preceding block, and a rank's
    resync rounds arrive in round-index order.  This is the engine-level
    analogue of "no double-wait / double-complete" on requests.
``collective-nesting``
    Per rank, ``CollectiveExit`` events match the innermost open
    ``CollectiveEnter`` (LIFO), with exit time >= enter time.
``stats-consistency``
    ``Engine.stats()`` counters equal the event-stream counts
    (``messages_sent``/``messages_delivered``/``messages_unreceived``).
``clock-sanity``
    See :mod:`repro.check.clockcheck`: global clocks must be finite,
    monotone over the checked window, and have slope ≈ 1.

In ``strict`` mode the first violation raises
:class:`~repro.errors.InvariantViolation`; in ``report`` mode violations
accumulate into a :class:`CheckReport` (JSON + text renderable) so a
whole campaign can be audited post-hoc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvariantViolation
from repro.obs import events as obs_events
from repro.simmpi.message import ANY_TAG

#: Violations kept per report (further ones are counted, not stored).
MAX_VIOLATIONS = 200


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to reproduce it."""

    #: Rule identifier from the invariant catalog (e.g. ``fifo-order``).
    rule: str
    #: Human-readable description of what went wrong.
    message: str
    #: True simulation time at which the violation was observed (-1 when
    #: the check is not tied to a specific instant, e.g. finalize checks).
    time: float = -1.0
    #: Affected rank (-1 for run-level violations).
    rank: int = -1
    #: Structured extras (seqs, counters, ...), JSON-serializable.
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "time": self.time,
            "rank": self.rank,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(
            rule=data["rule"],
            message=data["message"],
            time=data.get("time", -1.0),
            rank=data.get("rank", -1),
            details=dict(data.get("details", {})),
        )

    def format(self) -> str:
        where = []
        if self.time >= 0.0:
            where.append(f"t={self.time:.9g}")
        if self.rank >= 0:
            where.append(f"rank={self.rank}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return f"{self.rule}: {self.message}{suffix}"


@dataclass
class CheckReport:
    """Outcome of one or more sanitized runs (mergeable, serializable)."""

    label: str = ""
    violations: list[Violation] = field(default_factory=list)
    #: Violations observed beyond the storage cap.
    dropped: int = 0
    runs: int = 0
    events_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and self.dropped == 0

    @property
    def total_violations(self) -> int:
        return len(self.violations) + self.dropped

    def merge_from(self, other: "CheckReport") -> None:
        room = MAX_VIOLATIONS - len(self.violations)
        self.violations.extend(other.violations[:room])
        self.dropped += other.dropped + max(
            0, len(other.violations) - room
        )
        self.runs += other.runs
        self.events_checked += other.events_checked

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "ok": self.ok,
            "runs": self.runs,
            "events_checked": self.events_checked,
            "total_violations": self.total_violations,
            "violations": [v.to_dict() for v in self.violations],
            "dropped": self.dropped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckReport":
        return cls(
            label=data.get("label", ""),
            violations=[
                Violation.from_dict(v) for v in data.get("violations", [])
            ],
            dropped=data.get("dropped", 0),
            runs=data.get("runs", 0),
            events_checked=data.get("events_checked", 0),
        )

    def format_text(self) -> str:
        head = (
            f"check report{f' [{self.label}]' if self.label else ''}: "
            f"{'OK' if self.ok else 'VIOLATIONS'} "
            f"({self.runs} run(s), {self.events_checked} events, "
            f"{self.total_violations} violation(s))"
        )
        lines = [head]
        for v in self.violations:
            lines.append(f"  {v.format()}")
        if self.dropped:
            lines.append(f"  ... and {self.dropped} more (cap reached)")
        return "\n".join(lines)


def _find_cycle(edges: dict[int, int]) -> list[int] | None:
    """First cycle in a functional wait-for graph (each node ≤ 1 edge)."""
    visited: set[int] = set()
    for start in sorted(edges):
        if start in visited:
            continue
        path: list[int] = []
        seen_here: dict[int, int] = {}
        node = start
        while node in edges and node not in visited:
            if node in seen_here:
                return path[seen_here[node]:]
            seen_here[node] = len(path)
            path.append(node)
            node = edges[node]
        visited.update(path)
    return None


class _RankState:
    """Per-rank sanitizer bookkeeping."""

    __slots__ = ("last_time", "blocked", "resync_round", "coll_stack")

    def __init__(self) -> None:
        self.last_time = 0.0
        #: The active ProcBlock record, or None while runnable.
        self.blocked: obs_events.ProcBlock | None = None
        self.resync_round = 0
        #: Open CollectiveEnter frames, innermost last.
        self.coll_stack: list[obs_events.CollectiveEnter] = []


class SanitizerSink:
    """Event sink that enforces the invariant catalog during a run.

    Passive like every sink (never mutates the engine, never draws
    randomness); in strict mode it raises out of ``emit``, which aborts
    the simulation at the exact faulty event.
    """

    def __init__(self, mode: str = "strict", label: str = "") -> None:
        if mode not in ("strict", "report"):
            raise ValueError(f"mode must be strict/report, got {mode!r}")
        self.mode = mode
        self.report = CheckReport(label=label)
        self._ranks: dict[int, _RankState] = {}
        #: seq -> MsgSend of not-yet-delivered messages.
        self._outstanding: dict[int, obs_events.MsgSend] = {}
        #: seqs that completed delivery (duplicate detection).
        self._delivered_seqs: set[int] = set()
        #: (source, dest, tag) -> last matched seq (non-overtaking check).
        self._last_matched: dict[tuple[int, int, int], int] = {}
        #: Time of the latest ordered MsgSend of any rank (``send-order``).
        self._last_send_time = 0.0
        self.sends = 0
        self.deliveries = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def violation(
        self,
        rule: str,
        message: str,
        time: float = -1.0,
        rank: int = -1,
        **details,
    ) -> None:
        """Record one violation; raises immediately in strict mode."""
        v = Violation(
            rule=rule, message=message, time=time, rank=rank,
            details=details,
        )
        if self.mode == "strict":
            raise InvariantViolation(v.format(), violation=v)
        if len(self.report.violations) < MAX_VIOLATIONS:
            self.report.violations.append(v)
        else:
            self.report.dropped += 1

    # ------------------------------------------------------------------
    # EventSink protocol
    # ------------------------------------------------------------------
    def emit(self, event) -> None:
        self.report.events_checked += 1
        etype = type(event)
        if etype is obs_events.FaultInject:
            return  # scheduled a priori, at future activation times
        rank = event.rank
        state = self._ranks.get(rank)
        if state is None:
            state = self._ranks[rank] = _RankState()
        if rank >= 0:
            if event.time < state.last_time:
                self.violation(
                    "monotonic-time",
                    f"{etype.__name__} at t={event.time:.9g} is before "
                    f"rank {rank}'s previous event at "
                    f"t={state.last_time:.9g}",
                    time=event.time, rank=rank,
                    previous=state.last_time,
                    event=etype.__name__,
                )
            else:
                state.last_time = event.time
        if etype is obs_events.MsgSend:
            self._on_send(event)
        elif etype is obs_events.MsgDeliver:
            self._on_deliver(event)
        elif etype is obs_events.ProcBlock:
            self._on_block(event, state)
        elif etype is obs_events.ProcWake:
            self._on_wake(event, state)
        elif etype is obs_events.ResyncRound:
            self._on_resync(event, state)
        elif etype is obs_events.CollectiveEnter:
            state.coll_stack.append(event)
        elif etype is obs_events.CollectiveExit:
            self._on_collective_exit(event, state)

    # ------------------------------------------------------------------
    # Per-event checks
    # ------------------------------------------------------------------
    def _is_hand_over(self, event: obs_events.MsgSend) -> bool:
        """Whether the engine may have run this send past the gate: a
        non-``REMOTE`` send to a rank blocked on a receive that names its
        sender and accepts its tag."""
        if event.level == "REMOTE":
            return False
        dest = self._ranks.get(event.dest)
        block = dest.blocked if dest is not None else None
        return (
            block is not None
            and block.reason == "recv"
            and block.source == event.rank
            and block.tag in (event.tag, ANY_TAG)
        )

    def _on_send(self, event: obs_events.MsgSend) -> None:
        self.sends += 1
        if not self._is_hand_over(event):
            # A hand-over neither breaks nor raises the ordered sends'
            # running maximum.
            if event.time < self._last_send_time:
                self.violation(
                    "send-order",
                    f"rank {event.rank} sent seq {event.seq} at "
                    f"t={event.time:.9g}, before an earlier send at "
                    f"t={self._last_send_time:.9g} (causality gate "
                    f"breached)",
                    time=event.time, rank=event.rank, seq=event.seq,
                    previous=self._last_send_time,
                )
            else:
                self._last_send_time = event.time
        if event.seq in self._outstanding or event.seq in self._delivered_seqs:
            self.violation(
                "conservation",
                f"send seq {event.seq} reuses an already-seen sequence "
                f"number",
                time=event.time, rank=event.rank, seq=event.seq,
            )
            return
        self._outstanding[event.seq] = event

    def _on_deliver(self, event: obs_events.MsgDeliver) -> None:
        self.deliveries += 1
        send = self._outstanding.pop(event.seq, None)
        if send is None:
            if event.seq in self._delivered_seqs:
                self.violation(
                    "conservation",
                    f"message seq {event.seq} delivered twice",
                    time=event.time, rank=event.rank, seq=event.seq,
                )
            else:
                self.violation(
                    "conservation",
                    f"delivery of seq {event.seq} has no matching send",
                    time=event.time, rank=event.rank, seq=event.seq,
                )
            return
        self._delivered_seqs.add(event.seq)
        if (
            send.rank != event.source
            or send.dest != event.rank
            or send.tag != event.tag
            or send.size != event.size
        ):
            self.violation(
                "msg-integrity",
                f"delivery of seq {event.seq} does not match its send: "
                f"sent {send.rank}->{send.dest} tag {send.tag} "
                f"({send.size}B), delivered {event.source}->{event.rank} "
                f"tag {event.tag} ({event.size}B)",
                time=event.time, rank=event.rank, seq=event.seq,
            )
        if event.time < send.time:
            self.violation(
                "msg-integrity",
                f"seq {event.seq} delivered at t={event.time:.9g} before "
                f"its send at t={send.time:.9g}",
                time=event.time, rank=event.rank, seq=event.seq,
                send_time=send.time,
            )
        channel = (event.source, event.rank, event.tag)
        last = self._last_matched.get(channel)
        if last is not None and event.seq < last:
            self.violation(
                "fifo-order",
                f"channel {event.source}->{event.rank} tag {event.tag} "
                f"matched seq {event.seq} after seq {last} "
                f"(non-overtaking violated)",
                time=event.time, rank=event.rank, seq=event.seq,
                previous_seq=last,
            )
        else:
            self._last_matched[channel] = event.seq

    def _on_block(self, event: obs_events.ProcBlock,
                  state: _RankState) -> None:
        if state.blocked is not None:
            self.violation(
                "lifecycle",
                f"rank {event.rank} blocked ({event.reason}) while "
                f"already blocked ({state.blocked.reason} since "
                f"t={state.blocked.time:.9g})",
                time=event.time, rank=event.rank, reason=event.reason,
            )
        state.blocked = event

    def _on_wake(self, event: obs_events.ProcWake,
                 state: _RankState) -> None:
        if state.blocked is None:
            self.violation(
                "lifecycle",
                f"rank {event.rank} woke without a preceding block",
                time=event.time, rank=event.rank,
            )
        state.blocked = None

    def _on_resync(self, event: obs_events.ResyncRound,
                   state: _RankState) -> None:
        expected = state.resync_round + 1
        if event.round_index != expected:
            self.violation(
                "lifecycle",
                f"rank {event.rank} resync round {event.round_index} "
                f"arrived out of order (expected {expected})",
                time=event.time, rank=event.rank,
                round_index=event.round_index,
            )
        state.resync_round = event.round_index

    def _on_collective_exit(self, event: obs_events.CollectiveExit,
                            state: _RankState) -> None:
        if not state.coll_stack:
            self.violation(
                "collective-nesting",
                f"rank {event.rank} exited {event.name} without entering",
                time=event.time, rank=event.rank, name=event.name,
            )
            return
        enter = state.coll_stack.pop()
        if (enter.name, enter.comm_id) != (event.name, event.comm_id):
            self.violation(
                "collective-nesting",
                f"rank {event.rank} exited {event.name} (comm "
                f"{event.comm_id}) but innermost open collective is "
                f"{enter.name} (comm {enter.comm_id})",
                time=event.time, rank=event.rank, name=event.name,
            )
        elif event.time < enter.time:
            self.violation(
                "collective-nesting",
                f"rank {event.rank} exited {event.name} at "
                f"t={event.time:.9g}, before entering at "
                f"t={enter.time:.9g}",
                time=event.time, rank=event.rank, name=event.name,
            )

    # ------------------------------------------------------------------
    # Deadlock diagnosis (engine consults this on a stalled run)
    # ------------------------------------------------------------------
    def deadlock_diagnosis(self, engine) -> str:
        """Describe the blocked-wait graph, naming a cycle if one exists.

        Built from the sanitizer's own block/wake tracking, so it names
        the operation and timestamp each rank has been stuck on — the
        actionable version of "all processes are blocked".
        """
        blocked = {
            rank: state.blocked
            for rank, state in sorted(self._ranks.items())
            if state.blocked is not None
        }
        if not blocked:
            return "no blocked ranks tracked (sanitizer saw no stall)"
        lines = ["blocked-wait diagnosis:"]
        edges: dict[int, int] = {}
        for rank, ev in blocked.items():
            if ev.reason == "recv":
                who = "ANY_SOURCE" if ev.source < 0 else f"rank {ev.source}"
                lines.append(
                    f"  rank {rank}: recv(source={who}, tag={ev.tag}) "
                    f"since t={ev.time:.9g}"
                )
            else:
                lines.append(
                    f"  rank {rank}: ssend(dest=rank {ev.source}, "
                    f"tag={ev.tag}) unmatched since t={ev.time:.9g}"
                )
            if ev.source >= 0:
                edges[rank] = ev.source
        cycle = _find_cycle(edges)
        if cycle:
            pretty = " -> ".join(f"rank {r}" for r in cycle)
            lines.append(f"  wait cycle: {pretty} -> rank {cycle[0]}")
        else:
            lines.append(
                "  no closed wait cycle among tracked edges "
                "(a peer may have exited, or an ANY_SOURCE wait is "
                "unsatisfiable)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def finalize(self, engine=None, spans=None) -> CheckReport:
        """Run the end-of-run invariants; returns the report.

        ``engine`` (when given) enables the stats- and metrics-
        consistency cross-checks against the event-stream counts;
        ``spans`` (a :class:`~repro.obs.spans.SpanRecorder`, when one is
        tee'd alongside the sanitizer) cross-validates the two
        observability layers: the recorder's open-edge count must equal
        the engine's ``messages_unreceived``.
        Idempotent: a second call returns the report unchanged.
        """
        if self._finalized:
            return self.report
        self._finalized = True
        self.report.runs += 1
        for rank, state in sorted(self._ranks.items()):
            if state.blocked is not None:
                self.violation(
                    "lifecycle",
                    f"rank {rank} still blocked ({state.blocked.reason}) "
                    f"at run end",
                    time=state.blocked.time, rank=rank,
                )
            if state.coll_stack:
                enter = state.coll_stack[-1]
                self.violation(
                    "collective-nesting",
                    f"rank {rank} never exited {enter.name} entered at "
                    f"t={enter.time:.9g}",
                    time=enter.time, rank=rank, name=enter.name,
                )
        if engine is not None:
            self._check_engine_consistency(engine)
        if spans is not None:
            self._check_span_consistency(engine, spans)
        return self.report

    def _check_engine_consistency(self, engine) -> None:
        stats = engine.stats()
        checks = (
            ("messages_sent", self.sends),
            ("messages_delivered", self.deliveries),
            ("messages_unreceived", len(self._outstanding)),
        )
        for name, observed in checks:
            counted = stats.get(name)
            if counted != observed:
                self.violation(
                    "stats-consistency",
                    f"Engine.stats()[{name!r}] = {counted} but the event "
                    f"stream shows {observed}",
                    stat=name, stats_value=counted, observed=observed,
                )
        if self.sends != self.deliveries + len(self._outstanding):
            self.violation(
                "conservation",
                f"{self.sends} sends != {self.deliveries} deliveries + "
                f"{len(self._outstanding)} undelivered",
                sends=self.sends, deliveries=self.deliveries,
                undelivered=len(self._outstanding),
            )
        metrics = getattr(engine, "metrics", None)
        if metrics is not None:
            self._check_metrics_consistency(metrics)

    def _check_span_consistency(self, engine, spans) -> None:
        """The span recorder and the sanitizer must agree on open edges.

        Both layers consume the same event stream independently: the
        sanitizer tracks outstanding sends for conservation, the span
        recorder tracks open (undelivered) causal edges.  Any mismatch
        means one of the two mis-parsed the stream — and when the live
        engine is at hand, its ``messages_unreceived`` stat arbitrates.
        """
        open_edges = spans.open_edge_count
        if open_edges != len(self._outstanding):
            self.violation(
                "stats-consistency",
                f"span recorder reports {open_edges} open edge(s) but "
                f"the sanitizer tracks {len(self._outstanding)} "
                f"outstanding send(s)",
                stat="open_edges", stats_value=open_edges,
                observed=len(self._outstanding),
            )
        if engine is not None:
            unreceived = engine.stats().get("messages_unreceived")
            if unreceived != open_edges:
                self.violation(
                    "stats-consistency",
                    f"Engine.stats()['messages_unreceived'] = "
                    f"{unreceived} but the span recorder reports "
                    f"{open_edges} open edge(s)",
                    stat="messages_unreceived", stats_value=unreceived,
                    observed=open_edges,
                )

    def _check_metrics_consistency(self, metrics) -> None:
        for counter_name, observed in (
            ("engine.messages.sent", self.sends),
            ("engine.messages.delivered", self.deliveries),
        ):
            total = metrics.merged_counter(counter_name)
            if total != observed:
                self.violation(
                    "stats-consistency",
                    f"metrics counter {counter_name!r} = {total:g} "
                    f"but the event stream shows {observed}",
                    counter=counter_name, counter_value=total,
                    observed=observed,
                )


class TeeSink:
    """Fan one event stream out to several sinks (checker + recorder).

    Forwards :meth:`deadlock_diagnosis` to the first part that offers
    one, so a tee'd sanitizer still enriches the engine's deadlock
    error.
    """

    def __init__(self, *parts) -> None:
        self.parts = tuple(p for p in parts if p is not None)

    def emit(self, event) -> None:
        for part in self.parts:
            part.emit(event)

    def run_break(self) -> None:
        """Forward run segmentation to any part that understands it."""
        for part in self.parts:
            brk = getattr(part, "run_break", None)
            if brk is not None:
                brk()

    def deadlock_diagnosis(self, engine) -> str:
        for part in self.parts:
            fn = getattr(part, "deadlock_diagnosis", None)
            if fn is not None:
                return fn(engine)
        return ""
