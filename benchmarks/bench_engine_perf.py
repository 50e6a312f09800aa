"""CLI: measure engine throughput + campaign wall time; track a baseline.

Usage (from the repo root, with ``src`` on ``PYTHONPATH``)::

    # Record the current tree (engine micro + serial & parallel fig3):
    python benchmarks/bench_engine_perf.py --record current --quick

    # Record a pre-optimization baseline from a worktree of an older
    # commit (this script carries an inline fallback of the workload so
    # it also runs against trees that predate repro.perf):
    PYTHONPATH=/path/to/old/src python benchmarks/bench_engine_perf.py \
        --record baseline --quick --output BENCH_engine.json

    # Show earliest-vs-latest speedups (exits 1 if < --min-speedup):
    python benchmarks/bench_engine_perf.py --compare

Results accumulate in ``BENCH_engine.json`` as an **append-only
trajectory** (format 2, oldest first): every ``--record`` appends a new
entry, so the history — including the original pre-optimization
baseline — survives re-records.  ``python -m repro.perf.regress`` gates
the latest entry against the best prior one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

try:
    from repro.perf import (
        campaign_benchmark,
        engine_benchmark,
        load_bench,
        record_bench,
        speedup,
    )
    HAVE_PERF_PKG = True
except ImportError:
    # Pre-optimization tree: repro.perf does not exist there.  Re-create
    # the exact workloads inline using only APIs present in both trees,
    # so baseline and current entries measure the same thing.
    import platform
    import time

    from repro.cluster.netmodels import infiniband_qdr
    from repro.cluster.topology import Machine
    from repro.simmpi.simulation import Simulation

    HAVE_PERF_PKG = False
    RING_SIZES = (8, 64, 8, 1024, 8, 65536)

    def _ring_main(nrounds):
        def main(ctx, comm):
            n = ctx.nprocs
            right = (ctx.rank + 1) % n
            left = (ctx.rank - 1) % n
            for r in range(nrounds):
                size = RING_SIZES[r % len(RING_SIZES)]
                yield from comm.sendrecv(
                    dest=right, send_tag=r, size=size, source=left
                )
                if r % 64 == 63:
                    yield from comm.barrier()
            total = yield from comm.allreduce(ctx.rank)
            return total

        return main

    def engine_benchmark(num_nodes=8, ranks_per_node=4, nrounds=400,
                         seed=0):
        machine = Machine(
            num_nodes=num_nodes,
            sockets_per_node=1,
            cores_per_socket=ranks_per_node,
            ranks_per_node=ranks_per_node,
            name="perfbox",
        )
        sim = Simulation(
            machine=machine, network=infiniband_qdr(), seed=seed
        )
        t0 = time.perf_counter()
        result = sim.run(_ring_main(nrounds))
        wall = time.perf_counter() - t0
        return {
            "workload": "ring",
            "num_nodes": num_nodes,
            "ranks_per_node": ranks_per_node,
            "nrounds": nrounds,
            "seed": seed,
            "wall_s": wall,
            "messages": result.messages,
            "msgs_per_sec": result.messages / wall if wall > 0 else 0.0,
        }

    def campaign_benchmark(scale="quick", jobs=1, seed=0):
        from repro.experiments import fig3_flat_algorithms

        t0 = time.perf_counter()
        result = fig3_flat_algorithms.run(scale=scale, seed=seed)
        wall = time.perf_counter() - t0
        return {
            "workload": "fig3_campaign",
            "scale": scale,
            "jobs": 1,
            "seed": seed,
            "wall_s": wall,
            "nruns": len(result.runs),
        }

    def _upgrade(data):
        # Format 1 kept entries as a {label: entry} dict; the trajectory
        # (format 2) keeps an append-only oldest-first list.
        entries = data.get("entries")
        if isinstance(entries, list):
            data.setdefault("format", 2)
            return data
        upgraded = []
        for label, entry in (entries or {}).items():
            entry = dict(entry)
            entry["label"] = label
            upgraded.append(entry)
        upgraded.sort(key=lambda e: (
            e.get("recorded_at", ""), e.get("label") != "baseline"
        ))
        return {
            "benchmark": data.get("benchmark", "engine_perf"),
            "format": 2,
            "entries": upgraded,
        }

    def load_bench(path):
        if not os.path.exists(path):
            return {"benchmark": "engine_perf", "format": 2, "entries": []}
        with open(path) as fh:
            return _upgrade(json.load(fh))

    def record_bench(label, entry, path):
        data = load_bench(path)
        entry = dict(entry)
        entry["label"] = label
        entry.setdefault(
            "recorded_at", time.strftime("%Y-%m-%dT%H:%M:%S")
        )
        entry.setdefault("python", platform.python_version())
        entry.setdefault("cpus", os.cpu_count())
        data["entries"].append(entry)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return data

    def speedup(data, metric="engine"):
        entries = _upgrade(data).get("entries", [])
        if metric == "engine":
            rates = [
                e["engine"]["msgs_per_sec"] for e in entries
                if e.get("engine", {}).get("msgs_per_sec")
            ]
            return rates[-1] / rates[0] if len(rates) >= 2 else None
        walls = [
            min(
                e[key]["wall_s"]
                for key in ("campaign", "campaign_parallel")
                if e.get(key, {}).get("wall_s")
            )
            for e in entries
            if any(
                e.get(key, {}).get("wall_s")
                for key in ("campaign", "campaign_parallel")
            )
        ]
        return walls[0] / walls[-1] if len(walls) >= 2 else None


def default_output() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_engine.json",
    )


def run_record(args) -> int:
    engine_rounds = 400 if args.quick else 2000
    print(f"[{args.record}] engine micro ({engine_rounds} rounds) ...",
          flush=True)
    kwargs = {}
    if HAVE_PERF_PKG and args.zones:
        kwargs["zones"] = True
    engine = engine_benchmark(nrounds=engine_rounds, seed=args.seed,
                              **kwargs)
    print(f"  {engine['messages']} messages in {engine['wall_s']:.3f}s "
          f"-> {engine['msgs_per_sec']:,.0f} msgs/s")
    scale = "quick" if args.quick else "default"
    print(f"[{args.record}] fig3 campaign ({scale}, serial) ...",
          flush=True)
    campaign = campaign_benchmark(scale=scale, jobs=1, seed=args.seed)
    print(f"  {campaign['wall_s']:.2f}s for {campaign['nruns']} runs")
    entry = {"engine": engine, "campaign": campaign,
             "tree": "current" if HAVE_PERF_PKG else "fallback"}
    if HAVE_PERF_PKG and args.service:
        from repro.perf import service_benchmark

        print(f"[{args.record}] clock service ({scale}) ...", flush=True)
        service = service_benchmark(scale=scale, seed=args.seed)
        print(f"  {service['queries']} queries in "
              f"{service['wall_s']:.3f}s -> "
              f"{service['queries_per_sec']:,.0f} queries/s")
        entry["service"] = service
    if HAVE_PERF_PKG and args.jobs and args.jobs != 1:
        print(f"[{args.record}] fig3 campaign ({scale}, "
              f"jobs={args.jobs}) ...", flush=True)
        par = campaign_benchmark(
            scale=scale, jobs=args.jobs, seed=args.seed
        )
        print(f"  {par['wall_s']:.2f}s for {par['nruns']} runs")
        entry["campaign_parallel"] = par
    data = record_bench(args.record, entry, args.output)
    print(f"recorded '{args.record}' -> {args.output} "
          f"({len(data['entries'])} entries)")
    return 0


def run_compare(args) -> int:
    data = load_bench(args.output)
    eng = speedup(data, "engine")
    camp = speedup(data, "campaign")
    if eng is None:
        print("compare: need >= 2 trajectory entries with engine data "
              f"in {args.output}", file=sys.stderr)
        return 1
    print(f"engine event-loop: {eng:.2f}x msgs/sec vs earliest entry")
    if camp is not None:
        print(f"campaign wall: {camp:.2f}x vs earliest entry")
    if eng < args.min_speedup:
        print(f"FAIL: engine speedup {eng:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LABEL",
                        help="run the benchmarks and store the entry "
                             "under LABEL (e.g. baseline, current)")
    parser.add_argument("--compare", action="store_true",
                        help="print current-vs-baseline speedups")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads (quick scale)")
    parser.add_argument("--zones", action="store_true",
                        help="attach a per-zone wall-time breakdown to "
                             "the engine entry (separate profiled run; "
                             "current tree only)")
    parser.add_argument("--service", action="store_true",
                        help="also time the clock service's serving hot "
                             "path (queries/s; current tree only)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="also time the campaign with this many "
                             "worker processes (current tree only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="--compare fails below this engine speedup")
    parser.add_argument("--output", default=default_output(),
                        help="benchmark JSON path (default: repo root "
                             "BENCH_engine.json)")
    args = parser.parse_args(argv)
    if not args.record and not args.compare:
        parser.error("nothing to do: pass --record LABEL and/or "
                     "--compare")
    rc = 0
    if args.record:
        rc = run_record(args)
    if rc == 0 and args.compare:
        rc = run_compare(args)
    return rc


if __name__ == "__main__":
    sys.exit(main())
