"""One perfbench child: a fresh process running one workload, op after op.

Closed loop, one client: the next op starts when the previous one has
been verified.  The child prints one JSON document as its last line and
touches no file.  ``run.py`` starts children one at a time.

Untraced (default): 1 cold warm-up op, then timed ops until ``--seconds``
of timed work is spent.  ``setup_s`` runs from the first statement of
this file to the end of the warm-up op: interpreter imports, input
construction and everything the first op leaves in caches.

``--traced``: after the warm-up, a few untraced ops (for the exact
``Engine.stats()`` counts and the untraced wall the overhead ratio
divides by), then up to 3 ops under a fresh ``Profiler`` each, with
benchmark-side spans around every public call.
"""

import time

_ENTRY = time.perf_counter()

import argparse
import json
import os
import resource
import sys
import traceback
from dataclasses import asdict

from report import ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.errors import ReproError
from repro.prof import Profiler, default_profiler, flatten, total_effective_ns
from workloads import WORKLOADS, NoSpans, SpanLog, Workload

#: Share of a traced child's ``--seconds`` spent on untraced ops.
UNTRACED_SHARE = 0.3
MAX_TRACED_OPS = 3


def run_op(workload: Workload, seed: int, smoke: bool, spans) -> dict:
    """One op: the timed region, then untimed verification."""
    raw = error = None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        raw = workload.run(seed, smoke, spans)
    except ReproError:
        # The op failed inside the program (InvariantViolation, deadlock,
        # ...): count it and keep the loop going.
        error = traceback.format_exc(limit=2)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    if raw is None:
        return {
            "wall_s": wall, "cpu_s": cpu, "failures": [error],
            "fingerprint": None,
        }
    return {"wall_s": wall, "cpu_s": cpu, **asdict(workload.verify(raw))}


def run_for(seconds: float, min_ops: int, max_ops: int, one_op) -> list[dict]:
    """Ops until the budget is spent; an op starts if half of it fits."""
    ops: list[dict] = []
    start = time.perf_counter()
    while len(ops) < max_ops:
        ops.append(one_op())
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed * (1 + 0.5 / len(ops)) >= seconds:
            break
    return ops


def traced_op(workload: Workload, seed: int, smoke: bool, spans: SpanLog) -> dict:
    """One op under a fresh profiler; zones folded by zone name."""
    profiler = Profiler()
    with default_profiler(profiler):
        record = run_op(workload, seed, smoke, spans)
    zones: dict[str, dict[str, float]] = {}
    jobs_total_s = 0.0
    for row in flatten(profiler):
        zone = zones.setdefault(row["name"], {"self_s": 0.0, "count": 0})
        zone["self_s"] += row["self_ns"] / 1e9
        zone["count"] += row["count"]
        if row["depth"] == 0 and row["name"].startswith("job:"):
            jobs_total_s += row["total_ns"] / 1e9
    record["zones"] = zones
    record["zones_total_s"] = total_effective_ns(profiler) / 1e9
    record["jobs_total_s"] = jobs_total_s
    record["spans"] = spans.seconds_by_name(spans.op)
    spans.op += 1
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--inject-mismatch", action="store_true",
        help="selftest only: run the last timed op on seed + 1, so its "
        "fingerprint cannot match the warm-up op's",
    )
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    quiet = NoSpans()

    warmup = run_op(workload, args.seed, args.smoke, quiet)
    setup_s = time.perf_counter() - _ENTRY

    budget = args.seconds * (UNTRACED_SHARE if args.traced else 1.0)
    ops = run_for(
        budget, args.min_ops, sys.maxsize,
        lambda: run_op(workload, args.seed, args.smoke, quiet),
    )
    if args.inject_mismatch:
        ops.append(run_op(workload, args.seed + 1, args.smoke, quiet))
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "warmup": warmup,
        "ops": ops,
    }
    if args.traced:
        spans = SpanLog()
        out["traced_ops"] = run_for(
            args.seconds - budget, args.min_ops, MAX_TRACED_OPS,
            lambda: traced_op(workload, args.seed, args.smoke, spans),
        )
        out["spans"] = spans.spans
    if workload.extra_check is not None:
        out["extra_failures"] = workload.extra_check(args.seed)
    # Linux reports ru_maxrss in KiB.
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
