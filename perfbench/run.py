"""perfbench: the repo's layered benchmark.  See perfbench/README.md.

Two ways in, one code path:

* ``python3 perfbench/run.py [--seed N] [--out DIR] [--traced] [--smoke]
  [--json]`` runs every workload, each in fresh child processes, one at a
  time, in seeded-random order; prints every metric by name with its
  unit; writes one result JSON under ``--out``.
* ``python3 perfbench/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` is the form ``BENCHMARK.json`` declares: one workload, no
  file written, and the last line of stdout is one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

The benchmark measures the program from outside: children call public
functions of ``repro`` and attach only the hooks its constructors take.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any

from report import ROOT, factors, format_tables, summarize
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh children per untraced measurement.  Each one pays interpreter
#: start, imports and a cold op, so ``setup_s`` and ``peak_rss_mb`` are
#: medians over the children and the timed ops pool two process layouts.
#: A third child would cost a third cold op per run; within the driver's
#: time cap that buys fewer timed ops than it is worth.
CHILDREN = 2
#: Timed ops per workload under ``--smoke`` (one child, no time budget).
SMOKE_OPS = 2
#: Share of ``--seconds`` a ``--trace 1`` run gives its traced child; the
#: rest of the run goes to the quick probes and the hook table.
TRACE_CHILD_SHARE = 0.6

# Where each per-layer metric comes from.  Names are the repo's modules.
#: metric -> (profiler zone name, field); summed over every zone path.
ZONE_METRICS = {
    "simmpi.engine.loop_self_s": ("engine.run", "self_s"),
    "simmpi.process.advance_self_s": ("proc.advance", "self_s"),
    "simmpi.process.advance_count": ("proc.advance", "count"),
    "simmpi.engine.send_self_s": ("engine.send", "self_s"),
    "simmpi.engine.send_count": ("engine.send", "count"),
    "simmpi.engine.recv_self_s": ("engine.recv", "self_s"),
    "simmpi.network.delay_self_s": ("net.delay", "self_s"),
    "simtime.clock_read_self_s": ("clock.read", "self_s"),
    "simtime.clock_read_count": ("clock.read", "count"),
    "sync.fit_self_s": ("sync.fit", "self_s"),
    "sync.fit_count": ("sync.fit", "count"),
    "sync.offset.rounds_count": ("sync.offset.rounds", "count"),
    "obs.sink_self_s": ("obs.sink", "self_s"),
    "check.finalize_self_s": ("check.finalize", "self_s"),
    "service.sync_self_s": ("service.sync", "self_s"),
    "service.batching_self_s": ("service.batching", "self_s"),
    "service.serve_self_s": ("service.serve", "self_s"),
}
#: metric -> ``Engine.stats()`` key (exact; from the untraced ops).
STAT_METRICS = {
    "simmpi.engine.messages": "messages_sent",
    "simmpi.engine.events": "events_processed",
    "simmpi.engine.max_queue_depth": "max_queue_depth",
    "simmpi.engine.max_mailbox_depth": "max_mailbox_depth",
    "simmpi.engine.gate_deferrals": "gate_deferrals",
    "simmpi.engine.rendezvous_stalls": "rendezvous_stalls",
    "simmpi.engine.bytes_sent": "bytes_sent",
}
#: metric -> benchmark-side span name.
SPAN_METRICS = {
    "cluster.build_s": "cluster.build",
    "simmpi.simulation.init_s": "simmpi.simulation.init",
    "simmpi.simulation.run_s": "simmpi.simulation.run",
    "experiments.run_s": "experiments.run",
    "experiments.format_s": "experiments.format",
}
SERVICE_METRICS = ("queries", "syncs", "cache_hit_ratio", "stale_rate")


def load_benchmark() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _spawn(script: str, *args: Any, timeout: float = 170.0) -> dict[str, Any]:
    """Run one child to completion; its last stdout line is its document."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Engine defaults only: no sanitizer mode leaking in from the caller.
    env.pop("REPRO_CHECK", None)
    env.pop("REPRO_CHECK_DIR", None)
    argv = [sys.executable, os.path.join(HERE, script), *map(str, args)]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _child_args(name: str, seed: int, seconds: float, smoke: bool) -> list:
    args = ["--workload", name, "--seed", seed]
    if smoke:
        return args + ["--smoke", "--seconds", 0, "--min-ops", SMOKE_OPS]
    return args + ["--seconds", seconds]


def count_failures(children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every op of every child.

    An op fails if one of its own checks failed or if its simulated
    fingerprint differs from the first child's warm-up op: across ops,
    across processes, and between the quiet and the profiled path.
    """
    reference = children[0]["warmup"]["fingerprint"]
    attempted = failed = 0
    reasons: list[str] = []
    for child in children:
        ops = [child["warmup"], *child["ops"], *child.get("traced_ops", [])]
        for op in ops:
            why = list(op["failures"])
            if op["fingerprint"] != reference:
                why.append("sim_fingerprint differs from the warm-up op's")
            attempted += 1
            failed += bool(why)
            reasons += why
        if "extra_failures" in child:
            attempted += 1
            failed += bool(child["extra_failures"])
            reasons += child["extra_failures"]
    return attempted, failed, sorted(set(reasons))


def measure_untraced(
    name: str, seed: int, seconds: float, smoke: bool,
    inject_mismatch: bool = False,
) -> dict[str, Any]:
    """The end-to-end record of one workload, tracing off."""
    nchildren = 1 if smoke else CHILDREN
    args = _child_args(name, seed, seconds / nchildren, smoke)
    children = []
    for index in range(nchildren):
        last = index == nchildren - 1
        extra = ["--inject-mismatch"] if inject_mismatch and last else []
        children.append(_spawn("child.py", *args, *extra))
    attempted, failed, reasons = count_failures(children)

    first = children[0]["warmup"]
    ops = [op for child in children for op in child["ops"]]
    summary = {
        "wall_s": summarize([op["wall_s"] for op in ops]),
        "cpu_s": summarize([op["cpu_s"] for op in ops]),
        "setup_s": summarize([c["setup_s"] for c in children]),
        "peak_rss_mb": summarize([c["peak_rss_mb"] for c in children]),
    }
    sim_sync = [op["sim_sync_s"] for op in ops if op.get("sim_sync_s")]
    if sim_sync:
        summary["sim_sync_s"] = summarize(sim_sync)
    # Best-of-N: every timed op does identical simulated work, and host
    # noise here comes in bursts that only ever add time, so the fastest
    # op is the steadiest estimate of what the program costs.
    wall_s = summary["wall_s"]["min"]
    derived = {}
    if first.get("work"):
        derived[f"{first['work_unit']}_per_s"] = first["work"] / wall_s
    return {
        "why": WORKLOADS[name].why,
        "end_to_end": {
            "wall_s": wall_s,
            "setup_s": summary["setup_s"]["median"],
            "peak_rss_mb": summary["peak_rss_mb"]["median"],
        },
        "sim_sync_s": first.get("sim_sync_s"),
        "summary": summary,
        "derived": derived,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": reasons,
        "sim_fingerprint": first["fingerprint"],
        "engine": first.get("engine"),
        "samples": {
            "wall_s": [[op["wall_s"] for op in c["ops"]] for c in children],
            "cpu_s": [[op["cpu_s"] for op in c["ops"]] for c in children],
            "warmup_wall_s": [c["warmup"]["wall_s"] for c in children],
            "setup_s": [c["setup_s"] for c in children],
            "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        },
    }


def workload_layers(child: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one workload from its traced child.

    Zone and span seconds are medians over the traced ops; counts from
    ``Engine.stats()`` are exact and come from the untraced ops.  0 means
    the layer does no work on this workload (or, for ``campaign_quick``,
    that no public call hands the count out).
    """
    first = child["warmup"]
    traced = child["traced_ops"]
    wall_s = min(op["wall_s"] for op in child["ops"])

    def median(get) -> float:
        return statistics.median(get(op) for op in traced)

    out: dict[str, float] = {}
    for metric, (zone, key) in ZONE_METRICS.items():
        out[metric] = median(lambda op: op["zones"].get(zone, {}).get(key, 0))
    stats = first.get("engine") or {}
    for metric, key in STAT_METRICS.items():
        out[metric] = stats.get(key, 0)
    if not stats:
        # campaign_quick runs its simulations inside the public call; the
        # send-zone count is the one message count visible from outside.
        out["simmpi.engine.messages"] = out["simmpi.engine.send_count"]
    messages = out["simmpi.engine.messages"]
    events = out["simmpi.engine.events"]
    out["simmpi.engine.events_per_msg"] = events / messages if messages else 0.0
    out["simmpi.engine.us_per_event"] = wall_s / events * 1e6 if events else 0.0
    for metric, span in SPAN_METRICS.items():
        out[metric] = median(lambda op: op["spans"].get(span, 0.0))
    out["parallel.executor.overhead_s"] = median(
        lambda op: op["spans"].get("experiments.run", 0.0) - op["jobs_total_s"]
        if op["jobs_total_s"] else 0.0
    )
    service = first.get("service") or {}
    for key in SERVICE_METRICS:
        out[f"service.{key}"] = service.get(key, 0)
    out["sync.sim_sync_s"] = first.get("sim_sync_s") or 0.0
    out["trace.overhead_ratio"] = min(op["wall_s"] for op in traced) / wall_s
    out["trace.coverage_ratio"] = median(
        lambda op: sum(op["spans"].values()) / op["wall_s"]
    )
    out["trace.zone_share"] = median(
        lambda op: op["zones_total_s"] / op["wall_s"]
    )
    return out


def measure_traced(
    name: str, seed: int, seconds: float, smoke: bool
) -> dict[str, Any]:
    """The per-layer record of one workload: one traced child."""
    child = _spawn(
        "child.py", *_child_args(name, seed, seconds, smoke), "--traced"
    )
    attempted, failed, reasons = count_failures([child])
    return {
        "per_layer": workload_layers(child),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": reasons,
        "traced_ops": len(child["traced_ops"]),
        "spans": child["spans"],
    }


def measure_probes(quick: bool, smoke: bool) -> dict[str, dict[str, float]]:
    """Isolated probes + hook table in a fresh child of their own."""
    if quick:
        args = ["--slice-seconds", 0.04, "--reps", 3, "--hook-reps", 1]
    else:
        args = ["--slice-seconds", 0.5, "--reps", 5, "--hook-reps", 5]
    return _spawn(
        "probes.py", *args, "--hook-nodes", 8 if smoke else 64
    )


def contract_run(args, benchmark: dict[str, Any]) -> int:
    """One workload, the way ``BENCHMARK.json``'s command is called."""
    if args.trace:
        traced = measure_traced(
            args.workload, args.seed,
            args.seconds * TRACE_CHILD_SHARE, args.smoke,
        )
        probes = measure_probes(quick=True, smoke=args.smoke)
        values = {**traced["per_layer"], **probes["probes"], **probes["hooks"]}
        record, declared = traced, benchmark["per_layer"]
    else:
        record = measure_untraced(
            args.workload, args.seed, args.seconds, args.smoke,
            inject_mismatch=args.inject_mismatch,
        )
        values, declared = record["end_to_end"], benchmark["end_to_end"]
    for reason in record["failures"]:
        print(f"perfbench: {args.workload}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


def full_pass(args, benchmark: dict[str, Any]) -> dict[str, Any]:
    """Every workload, in seeded-random order; optionally a traced pass."""
    order = list(WORKLOADS)
    random.Random(args.seed).shuffle(order)
    host = factors()
    host["loadavg_before"] = os.getloadavg()[0]
    host["python_hash_seed_in_children"] = "0"

    def progress(text: str) -> None:
        print(f"perfbench: {text}", file=sys.stderr, flush=True)

    workloads: dict[str, Any] = {}
    for name in order:
        progress(f"untraced {name}")
        workloads[name] = measure_untraced(
            name, args.seed, args.seconds, args.smoke
        )
    doc: dict[str, Any] = {
        "perfbench_version": 1,
        "claim": None,
        "seed": args.seed,
        "mode": "smoke" if args.smoke else "full",
        "seconds": args.seconds,
        "traced": args.traced,
        "order": order,
        "bounds": {m["name"]: m["bound"] for m in benchmark["end_to_end"]},
        "workloads": workloads,
    }
    if args.traced:
        for name in order:
            progress(f"traced {name}")
            traced = measure_traced(name, args.seed, args.seconds, args.smoke)
            workloads[name]["per_layer"] = traced.pop("per_layer")
            workloads[name]["trace"] = traced
        progress("isolated probes and hook table")
        doc.update(measure_probes(quick=args.smoke, smoke=args.smoke))
    host["loadavg_after"] = os.getloadavg()[0]
    doc["factors"] = host
    if max(host["loadavg_before"], host["loadavg_after"]) > host["cpu_count"]:
        progress(
            f"warning: load average {host['loadavg_before']:.2f} -> "
            f"{host['loadavg_after']:.2f} exceeds {host['cpu_count']} cpus; "
            f"host times are contended"
        )
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="full pass: add the traced pass and the probes")
    parser.add_argument("--smoke", action="store_true",
                        help="p <= 64, 2 timed ops, same code path and checks")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    parser.add_argument("--json", action="store_true",
                        help="print only the machine-readable document")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; nothing to measure",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.workload:
        return contract_run(args, benchmark)

    doc = full_pass(args, benchmark)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out,
        f"perfbench_seed{args.seed}_{time.strftime('%Y%m%dT%H%M%S')}.json",
    )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if args.json:
        print(json.dumps(doc))
    else:
        print(format_tables(doc))
        print(f"result file: {path}")
    failed = sum(
        w["ops_failed"] + w.get("trace", {}).get("ops_failed", 0)
        for w in doc["workloads"].values()
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
