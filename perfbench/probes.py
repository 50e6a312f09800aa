"""Isolated probes of single layers and the hook-overhead table.

Each probe drives one public function in a tight loop for ``slice_s``
seconds, ``reps`` times, and reports the median rate.  The full traced
pass uses 0.5 s x 5; a ``--trace 1`` run of one workload has about ten
seconds for everything and uses short slices, so its rates are noisier
(per-layer metrics carry no bound).  Inputs are fixed (seed 0): a probe
measures the host cost of a layer, not a workload.

Run as a script it prints one JSON document: ``{"probes": .., "hooks": ..}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from report import ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.faults import FaultInjector, FaultSchedule
from repro.obs import CountingSink, MetricsRegistry, SpanRecorder, TimeSeriesBank
from repro.prof import Profiler
from repro.service import (
    ClockService,
    ServiceConfig,
    SimulatedCluster,
    WorkloadSpec,
    compile_epoch,
    generate,
)
from repro.simmpi.eventq import auto_bucket_width, make_queue
from repro.simmpi.network import Level
from repro.simmpi.rngpool import UniformPool
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME, make_clock
from repro.sync import LinearDriftModel
from repro.sync.registry import algorithm_from_label
from workloads import FLAT_LABEL

#: Inner-loop length of one probe step, so the clock is read once per
#: thousand operations.
BATCH = 1000
#: One message's service window, as the engine estimates it for
#: ``infiniband_qdr`` (overheads + finest latency), for the bucket width.
SERVICE_WINDOW = 2e-6


def _rate(step, ops_per_step: int, slice_s: float, reps: int) -> float:
    """Median operations per second of ``step`` over ``reps`` slices."""
    rates = []
    for _ in range(reps):
        steps = 0
        start = time.perf_counter()
        while True:
            step()
            steps += 1
            now = time.perf_counter()
            if now - start >= slice_s:
                break
        rates.append(steps * ops_per_step / (now - start))
    return statistics.median(rates)


def _seconds(step, slice_s: float, reps: int) -> float:
    """Median seconds per call of a step that takes milliseconds or more."""
    return 1.0 / _rate(step, 1, slice_s, reps)


# ----------------------------------------------------------------------
# simmpi.eventq
# ----------------------------------------------------------------------
def _hold_step(kind: str, depth: int):
    """Pop-then-push at a steady ``depth`` (the classic hold model)."""
    queue = make_queue(kind, auto_bucket_width(SERVICE_WINDOW, depth))
    gaps = (
        np.random.default_rng(0).exponential(SERVICE_WINDOW, BATCH).tolist()
    )
    for seq in range(depth):
        queue.push(gaps[seq % BATCH], seq, seq)
    state = [depth]

    def step() -> None:
        seq = state[0]
        for gap in gaps:
            now, _seq, rank = queue.pop()
            queue.push(now + gap, seq, rank)
            seq += 1
        state[0] = seq

    return step


def _cancel_step(kind: str):
    """Push a batch, cancel every second entry, pop the rest."""
    width = auto_bucket_width(SERVICE_WINDOW, BATCH)
    times = np.random.default_rng(0).uniform(0.0, 1e-3, BATCH).tolist()

    def step() -> None:
        queue = make_queue(kind, width)
        for seq, at in enumerate(times):
            queue.push(at, seq, seq)
        for seq in range(0, BATCH, 2):
            queue.cancel(seq)
        while queue.size:
            queue.pop()

    return step


# ----------------------------------------------------------------------
# simmpi.rngpool, simmpi.network, cluster.topology, sync, simtime
# ----------------------------------------------------------------------
def _rngpool_step():
    pool = UniformPool(np.random.default_rng(0))

    def step() -> None:
        for _ in range(BATCH):
            pool.next()

    return step


def _delay_step():
    network = infiniband_qdr()
    pool = UniformPool(np.random.default_rng(0))

    def step() -> None:
        for _ in range(BATCH):
            network.delay_from_pool(Level.REMOTE, 8, pool)

    return step


def _level_step():
    machine = Machine(256, 1, 4, 4)
    pairs = np.random.default_rng(0).integers(0, 1024, (BATCH, 2)).tolist()

    def step() -> None:
        for a, b in pairs:
            machine.level_between(a, b)

    return step


def _fit_step():
    rng = np.random.default_rng(0)
    x = (1e4 + np.arange(8) * 1e-3).tolist()
    y = (1e-5 * np.arange(8) + rng.normal(0.0, 1e-7, 8)).tolist()

    def step() -> None:
        for _ in range(BATCH // 10):
            LinearDriftModel.fit(x, y)

    return step


def _clock_read_step():
    clock = make_clock(CLOCK_GETTIME, np.random.default_rng(0))
    times = np.random.default_rng(1).uniform(0.0, 60.0, BATCH).tolist()

    def step() -> None:
        for t in times:
            clock.read(t)

    return step


def _clock_read_many_step():
    clock = make_clock(CLOCK_GETTIME, np.random.default_rng(0))
    times = np.random.default_rng(1).uniform(0.0, 60.0, 100 * BATCH)
    return lambda: clock.read_many(times)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def _service_cluster() -> SimulatedCluster:
    cluster = SimulatedCluster(
        ServiceConfig(num_ranks=8), np.random.SeedSequence(0)
    )
    cluster.sync(1.0)
    return cluster


def _epoch_of(cluster: SimulatedCluster):
    return compile_epoch(
        generation=cluster.generation,
        synced_at=cluster.synced_at,
        models=cluster.models(),
        drifts=cluster.drifts(),
        base_error=cluster.base_error,
        ref_rank=cluster.ref_rank,
    )


def _service_inputs(n: int):
    rng = np.random.default_rng(0)
    ranks = rng.integers(0, 8, n)
    at = np.sort(rng.uniform(1.0, 2.0, n))
    return ranks, at + 1e4, at


def _now_scalar_step():
    cluster = _service_cluster()
    ranks, readings, at = (a.tolist() for a in _service_inputs(BATCH))

    def step() -> None:
        # A fresh service per step: every query misses the answer memo
        # (one epoch compile is amortised over the batch).
        service = ClockService(cluster, 25e-6)
        for i in range(BATCH):
            service.now(ranks[i], readings[i], at[i])

    return step


def run_probes(slice_s: float, reps: int) -> dict[str, float]:
    """Every isolated probe, keyed by its per-layer metric name."""
    out: dict[str, float] = {}
    for kind in ("heap", "calendar"):
        for depth in (1, 1024):
            out[f"simmpi.eventq.{kind}.hold_ops_per_s.d{depth}"] = _rate(
                _hold_step(kind, depth), 2 * BATCH, slice_s, reps
            )
        # 1000 pushes + 500 cancels + 500 pops per step
        out[f"simmpi.eventq.{kind}.cancel_ops_per_s"] = _rate(
            _cancel_step(kind), 2 * BATCH, slice_s, reps
        )
    out["simmpi.rngpool.take_per_s"] = _rate(
        _rngpool_step(), BATCH, slice_s, reps
    )
    out["simmpi.network.delay_per_s"] = _rate(
        _delay_step(), BATCH, slice_s, reps
    )
    out["cluster.topology.level_between_per_s"] = _rate(
        _level_step(), BATCH, slice_s, reps
    )
    out["sync.linear_model.fit_per_s"] = _rate(
        _fit_step(), BATCH // 10, slice_s, reps
    )
    out["simtime.hardware.read_per_s"] = _rate(
        _clock_read_step(), BATCH, slice_s, reps
    )
    out["simtime.hardware.read_many_per_s"] = _rate(
        _clock_read_many_step(), 100 * BATCH, slice_s, reps
    )

    cluster = _service_cluster()
    out["service.epoch.compile_s"] = _seconds(
        lambda: _epoch_of(cluster), slice_s, reps
    )
    epoch = _epoch_of(cluster)
    ranks, readings, at = _service_inputs(100 * BATCH)
    out["service.epoch.global_of_batch_per_s"] = _rate(
        lambda: epoch.global_of(ranks, readings), 100 * BATCH, slice_s, reps
    )
    out["service.core.now_scalar_per_s"] = _rate(
        _now_scalar_step(), BATCH, slice_s, reps
    )
    service = ClockService(cluster, 25e-6)
    out["service.core.now_batch_per_s"] = _rate(
        lambda: service.now_batch(ranks, readings, at),
        100 * BATCH, slice_s, reps,
    )
    spec = WorkloadSpec(mode="open", duration=50.0, rate=6000.0)
    out["service.workload.generate_s"] = _seconds(
        lambda: generate(spec, 8, np.random.SeedSequence(0)), slice_s, reps
    )
    out["simmpi.engine.ring_p32_msgs_per_s"] = _ring_p32() / _seconds(
        _ring_p32, slice_s, reps
    )
    return out


# ----------------------------------------------------------------------
# simmpi.engine: the 8x4 ring of BENCH_engine.json, re-implemented here
# ----------------------------------------------------------------------
RING_SIZES = (8, 64, 8, 1024, 8, 65536)
RING_ROUNDS = 400


def _ring_main(ctx, comm):
    n = ctx.nprocs
    right = (ctx.rank + 1) % n
    left = (ctx.rank - 1) % n
    for r in range(RING_ROUNDS):
        yield from comm.sendrecv(
            dest=right, send_tag=r, size=RING_SIZES[r % len(RING_SIZES)],
            source=left,
        )
        if r % 64 == 63:
            yield from comm.barrier()
    return (yield from comm.allreduce(ctx.rank))


def _ring_p32() -> int:
    sim = Simulation(
        machine=Machine(8, 1, 4, 4), network=infiniband_qdr(), seed=0
    )
    return sim.run(_ring_main).messages


# ----------------------------------------------------------------------
# Hook table: flat HCA3 at 64x4, one hook at a time against quiet
# ----------------------------------------------------------------------
def _hook_configs(machine: Machine) -> dict[str, callable]:
    """Name -> factory of the ``Simulation`` keywords attaching that hook."""
    return {
        "quiet": lambda: {},
        "sink": lambda: {"sink": CountingSink()},
        "metrics": lambda: {"metrics": MetricsRegistry()},
        "timeseries": lambda: {"timeseries": TimeSeriesBank()},
        "profiler": lambda: {"profiler": Profiler()},
        "sanitizer_strict": lambda: {"check": "strict"},
        "span_recorder": lambda: {"sink": SpanRecorder()},
        "injector_empty": lambda: {
            "injector": FaultInjector(
                FaultSchedule("empty"), node_of=machine.node_of
            )
        },
    }


def run_hook_table(reps: int, num_nodes: int = 64) -> dict[str, float]:
    """``hook.<name>.overhead_ratio`` = min wall with the hook / quiet.

    Configurations run round-robin so a burst of host noise lands on all
    of them; min-of-``reps`` because the simulated work is identical
    every time and slower samples measure only interference.
    """
    machine = Machine(num_nodes, 1, 4, 4)
    network = infiniband_qdr()
    configs = _hook_configs(machine)
    best = dict.fromkeys(configs, float("inf"))
    for _ in range(reps):
        for name, hooks in configs.items():
            algorithm = algorithm_from_label(FLAT_LABEL, fitpoint_spacing=1e-3)

            def main(ctx, comm):
                yield from algorithm.sync_clocks(comm, ctx.hardware_clock)

            start = time.perf_counter()
            sim = Simulation(
                machine=machine, network=network, seed=0, **hooks()
            )
            sim.run(main)
            best[name] = min(best[name], time.perf_counter() - start)
    out = {
        f"hook.{name}.overhead_ratio": best[name] / best["quiet"]
        for name in configs if name != "quiet"
    }
    out["hook.quiet_wall_s"] = best["quiet"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slice-seconds", type=float, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--hook-reps", type=int, required=True)
    parser.add_argument("--hook-nodes", type=int, default=64)
    args = parser.parse_args()
    print(json.dumps({
        "probes": run_probes(args.slice_seconds, args.reps),
        "hooks": run_hook_table(args.hook_reps, args.hook_nodes),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
