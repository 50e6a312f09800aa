"""Critical-path analysis over recorded causal spans.

Consumes the per-run DAG assembled by :class:`repro.obs.spans.SpanRecorder`
and answers the paper's structural question with a measurement: which
chain of messages and compute intervals *made* a sync round (or a whole
run) take as long as it did, and how deep is that chain — O(log p) for
the hierarchical algorithms, Θ(p) for flat JK.

The extraction is a backward walk over binding dependencies.  Starting
from the run's last event, it repeatedly finds the latest dependency on
the current rank at or before the current time:

* a **waited delivery** (``MsgDeliver.waited``: the receiver's timeline
  was advanced to the message's arrival) — the walk emits a compute
  segment down to the delivery, a message segment spanning
  send→deliver, and jumps to the sender at the send time;
* a **binding ack wake** (a rendezvous sender resumed strictly after it
  blocked) — the walk emits an ack segment back to the receiver's
  delivery time and continues on the receiver.

Both jumps strictly decrease time, so the walk terminates; with no
dependency left it anchors a final compute segment at the window start.
The resulting segments tile the window exactly: path length equals the
window duration, and since each message segment spans its edge's whole
latency, the path length is >= any single traversed edge delay (the
invariants pinned by the Hypothesis suite).

Depth is measured by phase attribution, not message counting: each
segment is mapped to the innermost ``sync.learn`` phase covering it,
and the number of distinct phase instances traversed is the empirical
round depth.  For HCA-family runs at p = 2^k that is exactly k =
ceil(log2 p); for JK it is p - 1.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, inf, log2

from repro.obs.spans import MessageEdge, PhaseSpan, SpanRecorder, SpanRun

#: Algorithms whose round structure is flat (depth ~ p), not a tree.
FLAT_ALGORITHMS = frozenset({"jk"})

#: Phase name whose distinct instances define the round depth.
LEARN_PHASE = "sync.learn"

_ROUND_DIGITS = 12


def _round(value: float) -> float:
    return round(float(value), _ROUND_DIGITS)


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One interval on the critical path (chronological order).

    ``kind`` is ``"compute"`` (the rank itself was the dependency),
    ``"msg"`` (a waited message edge: ``rank`` is the receiver, ``src``
    the sender, the interval spans send→deliver), or ``"ack"`` (a
    rendezvous ack: ``rank`` is the blocked sender, ``src`` the
    receiver whose delivery released it).
    """

    kind: str
    rank: int
    start: float
    end: float
    src: int = -1
    seq: int = -1
    level: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------------
# Binding-dependency index + backward walk
# ----------------------------------------------------------------------
class _DependencyIndex:
    """Per-rank, time-sorted binding dependencies for a run."""

    __slots__ = ("times", "deps")

    def __init__(self, run: SpanRun) -> None:
        self.times: dict[int, list[float]] = {}
        self.deps: dict[int, list[tuple[str, MessageEdge]]] = {}
        for rank, edges in run.delivers.items():
            for edge in edges:
                if edge.waited:
                    self._add(rank, edge.deliver_time, "msg", edge)
        for rank, wakes in run.ack_wakes.items():
            for wake in wakes:
                edge = run.edges.get(wake.seq)
                # Binding only if the sender resumed strictly after it
                # blocked (it blocks at the edge's send time).
                if edge is not None and wake.time > edge.send_time:
                    self._add(rank, wake.time, "ack", edge)

    def _add(self, rank: int, time: float, kind: str,
             edge: MessageEdge) -> None:
        times = self.times.setdefault(rank, [])
        deps = self.deps.setdefault(rank, [])
        if times and time < times[-1]:
            # Delivery lists are per-rank chronological already; ack
            # wakes may interleave, so keep the invariant explicitly.
            idx = bisect_right(times, time)
            times.insert(idx, time)
            deps.insert(idx, (kind, edge))
        else:
            times.append(time)
            deps.append((kind, edge))

    def latest_at_or_before(
        self, rank: int, t: float
    ) -> tuple[float, str, MessageEdge] | None:
        times = self.times.get(rank)
        if not times:
            return None
        idx = bisect_right(times, t) - 1
        if idx < 0:
            return None
        kind, edge = self.deps[rank][idx]
        return times[idx], kind, edge


def critical_path(
    run: SpanRun,
    end_rank: int | None = None,
    t_end: float | None = None,
    t_min: float = 0.0,
) -> list[PathSegment]:
    """Longest simulated-time dependency chain ending at (rank, t_end).

    Defaults to the run's final event; pass a phase's rank/end/begin to
    extract a single round's path.  Segments are returned in
    chronological order and tile ``[t_min, t_end]`` exactly.
    """
    if t_end is None:
        t_end = run.t_end
    if end_rank is None:
        end_rank = run.end_rank
    if end_rank < 0 or t_end <= t_min:
        return []
    index = _DependencyIndex(run)
    segments: list[PathSegment] = []
    rank, t = end_rank, t_end
    # Each iteration either terminates or strictly decreases t; the
    # guard only protects against malformed (hand-built) streams.
    guard = 2 * (len(run.edges) + len(run.ack_wakes)) + 8
    while t > t_min and guard > 0:
        guard -= 1
        dep = index.latest_at_or_before(rank, t)
        if dep is None or dep[0] <= t_min:
            segments.append(PathSegment(
                kind="compute", rank=rank, start=t_min, end=t,
            ))
            break
        dep_time, kind, edge = dep
        if dep_time < t:
            segments.append(PathSegment(
                kind="compute", rank=rank, start=dep_time, end=t,
            ))
        if kind == "msg":
            start = max(edge.send_time, t_min)
            segments.append(PathSegment(
                kind="msg", rank=rank, start=start, end=dep_time,
                src=edge.src, seq=edge.seq, level=edge.level,
            ))
            rank, t = edge.src, edge.send_time
        else:  # ack: continue on the receiver at its delivery time
            start = max(edge.deliver_time, t_min)
            segments.append(PathSegment(
                kind="ack", rank=rank, start=start, end=dep_time,
                src=edge.dst, seq=edge.seq, level=edge.level,
            ))
            rank, t = edge.dst, edge.deliver_time
    segments.reverse()
    return segments


# ----------------------------------------------------------------------
# Phase attribution
# ----------------------------------------------------------------------
class _PhaseIndex:
    """Innermost-phase-covering-(rank, t) lookup with bounded scans."""

    __slots__ = ("_by_rank",)

    def __init__(self, run: SpanRun, name: str | None = None) -> None:
        self._by_rank: dict[int, tuple[list[float], list[PhaseSpan],
                                       list[float]]] = {}
        for rank, spans in run.phases.items():
            chosen = [s for s in spans if name is None or s.name == name]
            chosen.sort(key=lambda s: (s.begin, -s.end))
            begins = [s.begin for s in chosen]
            max_end: list[float] = []
            running = -inf
            for span in chosen:
                running = max(running, span.end)
                max_end.append(running)
            self._by_rank[rank] = (begins, chosen, max_end)

    def at(self, rank: int, t: float) -> PhaseSpan | None:
        entry = self._by_rank.get(rank)
        if entry is None:
            return None
        begins, spans, max_end = entry
        idx = bisect_right(begins, t) - 1
        # Scan back from the latest begin <= t; the first span still
        # covering t is the innermost.  The prefix max of ends bounds
        # the scan: once nothing to the left can reach t, stop.
        while idx >= 0 and max_end[idx] >= t:
            if spans[idx].end >= t:
                return spans[idx]
            idx -= 1
        return None


def _segment_anchor(segment: PathSegment) -> float:
    """Time at which to attribute a segment to a phase on its rank."""
    return segment.end


# ----------------------------------------------------------------------
# Depth model
# ----------------------------------------------------------------------
def expected_depth(p: int, algorithm_levels) -> int:
    """Upper bound on learn-round depth for the given algorithm mix.

    ``algorithm_levels`` is an iterable of distinct ``(algorithm,
    level)`` pairs observed in the run's learn phases.  Flat algorithms
    contribute ``p - 1`` sequential rounds; tree algorithms contribute
    ``ceil(log2 p) + 2`` (binomial rounds plus a possible remainder
    round and re-anchor slack).
    """
    pairs = sorted(set(algorithm_levels))
    if p <= 1 or not pairs:
        return 1
    total = 0
    for algorithm, _level in pairs:
        if algorithm in FLAT_ALGORITHMS:
            total += max(1, p - 1)
        else:
            total += ceil(log2(max(p, 2))) + 2
    return max(total, 1)


# ----------------------------------------------------------------------
# Run analysis
# ----------------------------------------------------------------------
def analyze_run(run: SpanRun, top_links: int = 8,
                top_rounds: int = 8, top_slack: int = 16) -> dict:
    """Full causal analysis of one run, as a JSON-ready dict.

    Includes the critical path with per-kind/per-level/per-link latency
    attribution, learn-round depth (measured vs the expected bound),
    per-round path summaries for the longest rounds, and per-rank slack
    (blocked time vs on-path time).  All floats are rounded to 12
    decimals so artifacts are byte-stable across ``--jobs``.
    """
    segments = critical_path(run)
    learn_index = _PhaseIndex(run, name=LEARN_PHASE)
    any_index = _PhaseIndex(run)

    by_kind: dict[str, float] = {}
    by_level: dict[str, list[float]] = {}
    by_link: dict[str, list[float]] = {}
    by_phase: dict[str, float] = {}
    round_keys: list[tuple] = []
    seen_rounds: set[tuple] = set()
    path_s_by_rank: dict[int, float] = {}
    for segment in segments:
        dur = segment.duration
        by_kind[segment.kind] = by_kind.get(segment.kind, 0.0) + dur
        path_s_by_rank[segment.rank] = (
            path_s_by_rank.get(segment.rank, 0.0) + dur
        )
        if segment.kind != "compute":
            stats = by_level.setdefault(segment.level or "?", [0.0, 0])
            stats[0] += dur
            stats[1] += 1
            link = f"{segment.src}->{segment.rank}"
            lstats = by_link.setdefault(link, [0.0, 0])
            lstats[0] += dur
            lstats[1] += 1
        anchor = _segment_anchor(segment)
        learn = learn_index.at(segment.rank, anchor)
        if learn is not None:
            key = learn.instance_key
            if key not in seen_rounds:
                seen_rounds.add(key)
                round_keys.append(key)
        phase = any_index.at(segment.rank, anchor)
        name = phase.name if phase is not None else "(none)"
        by_phase[name] = by_phase.get(name, 0.0) + dur

    # Depth: distinct learn instances and distinct (level, round) slots.
    level_rounds = sorted({(k[2], k[3]) for k in round_keys})
    algorithm_levels = {(k[1], k[2]) for k in round_keys}
    p = len(run.ranks)
    bound = expected_depth(p, algorithm_levels)
    level_depth = len(level_rounds)
    depth = {
        "round_depth": len(round_keys),
        "level_depth": level_depth,
        "expected": bound,
        "ratio": _round(level_depth / bound) if bound else 0.0,
        "p": p,
        "algorithms": sorted({k[1] for k in round_keys}),
    }

    # Per-round critical paths for the longest learn rounds.
    rounds = _round_summaries(run, top_rounds)

    # Slack: blocked time per rank vs time contributed to the path.
    slack_rows = []
    for rank in sorted(run.ranks):
        blocked = run.blocked_seconds(rank)
        on_path = path_s_by_rank.get(rank, 0.0)
        if blocked == 0.0 and on_path == 0.0:
            continue
        slack_rows.append({
            "rank": rank,
            "blocked_s": _round(blocked),
            "nblocks": len(run.blocks.get(rank, ())),
            "path_s": _round(on_path),
        })
    slack_rows.sort(key=lambda r: (-r["blocked_s"], r["rank"]))
    total_blocked = sum(r["blocked_s"] for r in slack_rows)

    duration = run.duration()
    path_length = segments[-1].end - segments[0].start if segments else 0.0
    return {
        "run": run.index,
        "p": p,
        "events": run.events,
        "edges": len(run.edges),
        "open_edges": run.open_edge_count,
        "duration_s": _round(duration),
        "critical_path": {
            "length_s": _round(path_length),
            "end_rank": run.end_rank,
            "segments": len(segments),
            "by_kind_s": {k: _round(v) for k, v in sorted(by_kind.items())},
            "by_level": {
                level: {"seconds": _round(s), "edges": n}
                for level, (s, n) in sorted(by_level.items())
            },
            "top_links": [
                {"link": link, "seconds": _round(s), "edges": n}
                for link, (s, n) in sorted(
                    by_link.items(), key=lambda kv: (-kv[1][0], kv[0])
                )[:top_links]
            ],
            "by_phase_s": {
                k: _round(v) for k, v in sorted(by_phase.items())
            },
        },
        "depth": depth,
        "rounds": rounds,
        "slack": {
            "total_blocked_s": _round(total_blocked),
            "ranks": slack_rows[:top_slack],
            "ranks_truncated": max(0, len(slack_rows) - top_slack),
        },
    }


def _round_summaries(run: SpanRun, top_rounds: int) -> list[dict]:
    """Per-round critical paths for the longest learn-phase instances."""
    instances: dict[tuple, PhaseSpan] = {}
    for spans in run.phases.values():
        for span in spans:
            if span.name != LEARN_PHASE:
                continue
            best = instances.get(span.instance_key)
            # Keep the client side (rank == peer) as the round's end
            # anchor when present; it closes the round's last exchange.
            if best is None or (span.rank == span.peer
                                and best.rank != best.peer):
                instances[span.instance_key] = span
    chosen = sorted(
        instances.values(),
        key=lambda s: (-(s.end - s.begin), s.instance_key),
    )[:top_rounds]
    out = []
    for span in chosen:
        segs = critical_path(
            run, end_rank=span.rank, t_end=span.end, t_min=span.begin
        )
        msg_s = sum(s.duration for s in segs if s.kind != "compute")
        max_edge = max(
            (s.duration for s in segs if s.kind == "msg"), default=0.0
        )
        out.append({
            "algorithm": span.algorithm,
            "level": span.level,
            "round_index": span.round_index,
            "ref": span.ref,
            "peer": span.peer,
            "duration_s": _round(span.end - span.begin),
            "path_msg_s": _round(msg_s),
            "path_compute_s": _round(
                sum(s.duration for s in segs if s.kind == "compute")
            ),
            "segments": len(segs),
            "max_edge_s": _round(max_edge),
        })
    return out


def analyze_recorder(recorder: SpanRecorder, **kwargs) -> list[dict]:
    """Analyze every completed run of a recorder (finalizes it first)."""
    recorder.finalize()
    return [analyze_run(run, **kwargs) for run in recorder.completed_runs()]


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def write_critical_path(out_dir: str, analyses: list[dict],
                        event_counts: dict | None = None) -> str:
    """Write ``critical_path.json`` (sorted keys, no wall-clock times),
    with the stream's per-type ``event_counts`` when given."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {"critical_path_version": 1, "runs": analyses}
    if event_counts is not None:
        payload["event_counts"] = event_counts
    path = os.path.join(out_dir, "critical_path.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_critical_path(analyses: list[dict], top: int = 10) -> str:
    """Human-readable top-N table over the analyzed runs."""
    if not analyses:
        return "critical path: no traced runs"
    lines = ["critical path (per traced run):"]
    header = (f"  {'run':>4} {'p':>5} {'duration':>12} {'depth':>6} "
              f"{'expect':>6} {'ratio':>6} {'msg%':>6} algorithms")
    lines.append(header)
    for entry in analyses:
        cp = entry["critical_path"]
        depth = entry["depth"]
        length = cp["length_s"] or 1.0
        msg_s = sum(
            v for k, v in cp["by_kind_s"].items() if k != "compute"
        )
        lines.append(
            f"  {entry['run']:>4} {entry['p']:>5} "
            f"{entry['duration_s']:>12.6f} {depth['level_depth']:>6} "
            f"{depth['expected']:>6} {depth['ratio']:>6.2f} "
            f"{100.0 * msg_s / length:>5.1f}% "
            f"{','.join(depth['algorithms']) or '-'}"
        )
    longest = max(analyses, key=lambda e: e["duration_s"])
    rounds = longest["rounds"][:top]
    if rounds:
        lines.append(
            f"  slowest sync rounds (run {longest['run']}):"
        )
        lines.append(
            f"    {'algorithm':>10} {'level':>8} {'round':>6} "
            f"{'duration':>12} {'msg_s':>12} {'segs':>5}"
        )
        for row in rounds:
            lines.append(
                f"    {row['algorithm']:>10} {row['level'] or '-':>8} "
                f"{row['round_index']:>6} {row['duration_s']:>12.9f} "
                f"{row['path_msg_s']:>12.9f} {row['segments']:>5}"
            )
    return "\n".join(lines)
