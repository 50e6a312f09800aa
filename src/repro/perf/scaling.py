"""Rank-count scaling probe: ``python -m repro.perf.scaling``.

Sweeps the simulator over a list of rank counts (default
``p ∈ {32, 128, 512, 2048}``) and records, per point, event-loop
throughput (msgs/s, events/s) plus a per-zone wall-time breakdown from a
second, profiled run of the identical workload.  This is the measurement
the ROADMAP's "vectorized sync kernel at p >= 4096" item needs: it shows
*which* engine zone stops scaling first as p grows, not just that the
wall time does.

Two workloads:

* ``ring`` — the :mod:`repro.perf.harness` nearest-neighbour ring with a
  fixed total message budget, so ``nrounds ≈ budget / p`` and every
  point moves a comparable number of messages;
* ``fig3`` — one flat HCA synchronization (the Fig. 3 workload family)
  over all p ranks, whose message count grows ~p·log p like the real
  algorithm.

Results go to the ``BENCH_engine.json`` trajectory via ``--record``:
one entry whose ``scaling`` section :mod:`repro.perf.regress` compares
per rank count against the best prior entry.

Each point records ``"event_queue": "calendar"``.  The engine has no
other kernel; the field is trajectory data, and the regression gate keys
on it so the heap sweeps recorded before the calendar queue landed never
gate a new sweep.  ``--compare`` prints, per ``(workload, p)``, the
speedup of the fresh sweep over the best prior trajectory point.

CLI::

    python -m repro.perf.scaling [--p 32 128 512 2048 4096]
                                 [--workload ring]
                                 [--budget 25600] [--seed 0] [--no-zones]
                                 [--label hca/8/skampi_offset/4]
                                 [--depth] [--critical-path DIR]
                                 [--compare] [--record LABEL]
                                 [--output BENCH.json]

``--depth`` (fig3 workload) re-runs each point once under a causal span
recorder and records the sync round's measured critical-path depth vs
its structural bound (``sync_depth`` per point; see
:mod:`repro.obs.causal`) — the empirical log-p-vs-p depth separation of
tree and flat algorithms, straight from the traced DAG.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from repro.cluster.netmodels import infiniband_qdr
from repro.perf.harness import (
    BENCH_FILE,
    _ring_main,
    load_bench,
    record_bench,
    ring_machine,
)
from repro.prof import Profiler, zone_breakdown
from repro.simmpi.simulation import Simulation

#: Rank counts swept by default — powers of 4 up to the p >= 4096 scale
#: the batched event kernel targets (ROADMAP item 1).
DEFAULT_P = (32, 128, 512, 2048, 4096)

#: Ring workload: total messages per point (``nrounds ≈ budget / p``).
DEFAULT_BUDGET = 25600

#: fig3 workload: the flat-HCA label synced once over all p ranks.  Small
#: fit-point/exchange counts keep the largest points tractable; the
#: *scaling* of the traffic pattern with p is what the probe measures.
FIG3_LABEL = "hca/8/skampi_offset/4"

RANKS_PER_NODE = 4


def _fig3_main(label: str = FIG3_LABEL):
    """SPMD body: one clock synchronization, no accuracy check."""
    from repro.sync.registry import algorithm_from_label

    algorithm = algorithm_from_label(label, fitpoint_spacing=1e-3)

    def main(ctx, comm):
        yield from algorithm.sync_clocks(comm, ctx.hardware_clock)
        return ctx.now

    return main


def _check_p(p: int) -> None:
    if p < RANKS_PER_NODE or p % RANKS_PER_NODE:
        raise ValueError(
            f"p={p} must be a multiple of {RANKS_PER_NODE}"
        )


def _build(
    p: int, workload: str, budget: int, seed: int,
    label: str = FIG3_LABEL,
):
    """(simulation factory, SPMD body, params dict) for one sweep point."""
    _check_p(p)
    machine = ring_machine(p // RANKS_PER_NODE, RANKS_PER_NODE)

    def make_sim(profiler: Profiler | None = None) -> Simulation:
        return Simulation(
            machine=machine, network=infiniband_qdr(), seed=seed,
            profiler=profiler,
        )

    if workload == "ring":
        nrounds = max(4, budget // p)
        return make_sim, lambda: _ring_main(nrounds), {"nrounds": nrounds}
    if workload == "fig3":
        return make_sim, lambda: _fig3_main(label), {"label": label}
    raise ValueError(f"unknown workload {workload!r}")


def depth_probe(
    p: int,
    label: str = FIG3_LABEL,
    seed: int = 0,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Trace one synchronization; measure its critical-path round depth.

    Re-runs the fig3 workload with a causal span recorder attached
    (recording costs wall time, so this stays separate from the
    unobserved timing run) and condenses the critical-path
    analysis to the per-point fields the benchmark trajectory keeps:
    measured level depth vs the algorithm's structural bound
    (``ceil(log2 p)``-shaped for tree algorithms, ``p - 1`` for flat
    ones).  Returns ``(summary, full_analysis)``; everything in the
    summary except ``wall_s`` is bit-deterministic.
    """
    from repro.obs.causal import analyze_recorder
    from repro.obs.spans import SpanRecorder

    _check_p(p)
    machine = ring_machine(p // RANKS_PER_NODE, RANKS_PER_NODE)
    recorder = SpanRecorder()
    sim = Simulation(
        machine=machine, network=infiniband_qdr(), seed=seed,
        sink=recorder,
    )
    t0 = time.perf_counter()
    sim.run(_fig3_main(label))
    wall = time.perf_counter() - t0
    analysis = analyze_recorder(recorder)[0]
    depth = analysis["depth"]
    cp = analysis["critical_path"]
    msg_s = sum(v for k, v in cp["by_kind_s"].items() if k != "compute")
    summary = {
        "p": p,
        "label": label,
        "level_depth": depth["level_depth"],
        "round_depth": depth["round_depth"],
        "expected_depth": depth["expected"],
        "depth_ratio": depth["ratio"],
        "duration_s": analysis["duration_s"],
        "path_msg_fraction": round(
            msg_s / cp["length_s"] if cp["length_s"] else 0.0, 12
        ),
        "wall_s": wall,
    }
    return summary, analysis


def probe_point(
    p: int,
    workload: str = "ring",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    zones: bool = True,
    label: str = FIG3_LABEL,
) -> dict[str, Any]:
    """Measure one rank count: throughput (unprofiled) + zone breakdown.

    The timing run is unprofiled; ``zones=True`` repeats the identical
    deterministic workload under a profiler so the breakdown costs the
    timing numbers nothing.
    """
    make_sim, make_main, params = _build(
        p, workload, budget, seed, label=label
    )
    sim = make_sim()
    t0 = time.perf_counter()
    result = sim.run(make_main())
    wall = time.perf_counter() - t0
    stats = sim.engine.stats()
    point: dict[str, Any] = {
        "p": p,
        "workload": workload,
        "seed": seed,
        "event_queue": "calendar",
        **params,
        "wall_s": wall,
        "messages": result.messages,
        "msgs_per_sec": result.messages / wall if wall > 0 else 0.0,
        "events_processed": stats["events_processed"],
        "events_per_sec": (
            stats["events_processed"] / wall if wall > 0 else 0.0
        ),
        "max_queue_depth": stats["max_queue_depth"],
        "gate_deferrals": stats["gate_deferrals"],
    }
    if zones:
        profiler = Profiler()
        make_sim(profiler).run(make_main())
        point["zones"] = zone_breakdown(profiler)
    return point


def scaling_probe(
    p_values=DEFAULT_P,
    workload: str = "ring",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    zones: bool = True,
    verbose: bool = False,
    label: str = FIG3_LABEL,
    depth: bool = False,
    depth_analyses: list | None = None,
) -> dict[str, Any]:
    """Sweep ``p_values``; returns the entry's ``scaling`` section.

    With ``depth=True`` (fig3 workload only) every point also runs one
    traced synchronization through :func:`depth_probe` and records the
    measured critical-path depth in the point's ``sync_depth`` section;
    the full per-run analyses are appended to ``depth_analyses`` when a
    list is passed (for ``--critical-path`` artifact export).
    """
    points = []
    for p in p_values:
        point = probe_point(
            p, workload=workload, budget=budget, seed=seed, zones=zones,
            label=label,
        )
        if depth and workload == "fig3":
            summary, analysis = depth_probe(p, label=label, seed=seed)
            point["sync_depth"] = summary
            if depth_analyses is not None:
                depth_analyses.append(analysis)
        points.append(point)
        if verbose:
            print(
                f"p={p:5d}: {point['messages']:7d} msgs in "
                f"{point['wall_s']:6.2f}s -> "
                f"{point['msgs_per_sec']:10,.0f} msgs/s, "
                f"{point['events_per_sec']:10,.0f} events/s",
                flush=True,
            )
            sync_depth = point.get("sync_depth")
            if sync_depth:
                print(
                    f"         sync depth: {sync_depth['level_depth']} "
                    f"(bound {sync_depth['expected_depth']}, "
                    f"ratio {sync_depth['depth_ratio']:.2f}) over a "
                    f"{sync_depth['duration_s']:.4f}s round"
                )
            if zones:
                rows = sorted(
                    point["zones"]["zones"].items(),
                    key=lambda kv: -kv[1]["self_ns"],
                )
                for path, z in rows[:3]:
                    print(
                        f"         {path}: {z['self_ns'] / 1e6:.1f}ms self "
                        f"({z['count']}x)"
                    )
    section: dict[str, Any] = {
        "workload": workload,
        "budget": budget,
        "seed": seed,
        "event_queue": "calendar",
        "points": points,
    }
    if workload == "fig3":
        section["label"] = label
    return section


def compare_to_trajectory(
    scaling: dict[str, Any], path: str = BENCH_FILE
) -> list[dict[str, Any]]:
    """Speedup of a fresh sweep vs the best prior point per (workload, p).

    Scans every recorded ``scaling`` section in the trajectory at
    ``path`` and, for each point of ``scaling``, reports the best prior
    ``msgs_per_sec`` at the same workload and rank count (any budget or
    queue kind — this is a progress report, not the regression gate,
    which only ever compares identical configurations).  Points with no
    prior measurement report ``speedup: None``.
    """
    best: dict[tuple[str, int], dict[str, Any]] = {}
    for entry in load_bench(path).get("entries", []):
        section = entry.get("scaling", {})
        workload = section.get("workload", "ring")
        for pt in section.get("points", []):
            if not (pt.get("p") and pt.get("msgs_per_sec")):
                continue
            key = (workload, int(pt["p"]))
            prior = best.get(key)
            if prior is None or pt["msgs_per_sec"] > prior["msgs_per_sec"]:
                best[key] = {
                    "msgs_per_sec": pt["msgs_per_sec"],
                    "event_queue": pt.get("event_queue", "heap"),
                    "budget": section.get("budget"),
                    "label": entry.get("label"),
                    "recorded_at": entry.get("recorded_at"),
                }
    rows = []
    for pt in scaling["points"]:
        key = (scaling["workload"], int(pt["p"]))
        prior = best.get(key)
        rows.append({
            "p": int(pt["p"]),
            "workload": scaling["workload"],
            "msgs_per_sec": pt["msgs_per_sec"],
            "prior": prior,
            "speedup": (
                pt["msgs_per_sec"] / prior["msgs_per_sec"]
                if prior else None
            ),
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.scaling",
        description="Sweep simulator throughput over rank counts.",
    )
    parser.add_argument(
        "--p", type=int, nargs="+", default=list(DEFAULT_P),
        metavar="P", help=f"rank counts to sweep (default: {DEFAULT_P})",
    )
    parser.add_argument(
        "--workload", choices=["ring", "fig3"], default="ring",
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="ring workload: total messages per point "
             f"(default: {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--label", default=FIG3_LABEL,
        help="fig3 workload: sync-algorithm label to probe "
             f"(default: {FIG3_LABEL})",
    )
    parser.add_argument(
        "--depth", action="store_true",
        help="fig3 workload: additionally run one traced sync per point "
             "and record its critical-path round depth (sync_depth)",
    )
    parser.add_argument(
        "--critical-path", metavar="DIR",
        help="with --depth: write the traced runs' critical_path.json "
             "under DIR",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-zones", action="store_true",
        help="skip the profiled second run per point (halves runtime)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="print the sweep's speedup vs the best prior trajectory "
             "point per (workload, p)",
    )
    parser.add_argument(
        "--record", metavar="LABEL",
        help="append the sweep to the benchmark trajectory under LABEL",
    )
    parser.add_argument(
        "--output", default=BENCH_FILE,
        help=f"trajectory file for --record (default: {BENCH_FILE})",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the scaling section as JSON to stdout",
    )
    args = parser.parse_args(argv)

    if args.depth and args.workload != "fig3":
        print("--depth requires --workload fig3", file=sys.stderr)
        return 2
    depth_analyses: list = []
    scaling = scaling_probe(
        p_values=args.p,
        workload=args.workload,
        budget=args.budget,
        seed=args.seed,
        zones=not args.no_zones,
        verbose=not args.json,
        label=args.label,
        depth=args.depth,
        depth_analyses=depth_analyses,
    )
    if args.json:
        print(json.dumps(scaling, indent=2, sort_keys=True))
    if args.critical_path and depth_analyses:
        from repro.obs.causal import write_critical_path

        cp_path = write_critical_path(
            args.critical_path, depth_analyses,
            meta={"workload": args.workload, "label": args.label,
                  "p": list(args.p), "seed": args.seed},
        )
        print(f"critical_path.json: {cp_path}", file=sys.stderr)
    if args.compare:
        for row in compare_to_trajectory(scaling, args.output):
            prior = row["prior"]
            if prior is None:
                print(
                    f"compare: p={row['p']:5d}: "
                    f"{row['msgs_per_sec']:10,.0f} msgs/s "
                    "(no prior trajectory point)"
                )
            else:
                print(
                    f"compare: p={row['p']:5d}: "
                    f"{row['msgs_per_sec']:10,.0f} msgs/s vs best prior "
                    f"{prior['msgs_per_sec']:10,.0f} "
                    f"({prior['event_queue']}, {prior['recorded_at']}) "
                    f"-> {row['speedup']:.2f}x"
                )
    if args.record:
        data = record_bench(args.record, {"scaling": scaling}, args.output)
        print(
            f"recorded '{args.record}' -> {args.output} "
            f"({len(data['entries'])} entries)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
