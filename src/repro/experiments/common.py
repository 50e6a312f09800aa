"""Shared experiment machinery: scales, sync-accuracy campaign runner.

The accuracy campaign (used by Figs. 3–6) mirrors the paper's methodology:
for each algorithm configuration, run ``nmpiruns`` independent simulated
jobs (fresh clocks and network jitter per run — a new ``mpirun``); in each
job, synchronize clocks, then run CHECK_CLOCK_ACCURACY (Algorithm 6) at
each waiting time.  One scatter point of Figs. 3–6 is one job: x = the
synchronization duration (max across ranks, including communicator
creation for hierarchical schemes), y = the measured maximum clock offset.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.accuracy import (
    sample_clock_health,
    sync_check_outcome,
    sync_then_check,
)
from repro.check import check_global_clock
from repro.cluster.machines import MachineSpec
from repro.context import current_context
from repro.parallel import JobSpec, job_seeds, run_jobs, seed_int
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec
from repro.sync.offset import SKaMPIOffset
from repro.sync.registry import algorithm_from_label


@dataclass(frozen=True)
class Scale:
    """Experiment size knobs (see EXPERIMENTS.md for the per-figure map)."""

    num_nodes: int
    ranks_per_node: int
    nfitpoints: int
    nexchanges: int
    fitpoint_spacing: float
    nmpiruns: int
    #: JK uses 1/5 the ping-pongs per fit point in the paper's labels
    #: (jk/1000/skampi/20 vs hca*/1000/skampi/100); its fit-point spacing
    #: scales accordingly (but not fully, to keep estimates usable at the
    #: reduced simulation scale).
    jk_spacing_factor: float = 0.5

    @property
    def nprocs(self) -> int:
        return self.num_nodes * self.ranks_per_node


#: CI-friendly: seconds of wall time per figure.
QUICK = Scale(
    num_nodes=8,
    ranks_per_node=2,
    nfitpoints=15,
    nexchanges=10,
    fitpoint_spacing=2e-3,
    nmpiruns=3,
)

#: Default reproduction scale (minutes of wall time per figure).
DEFAULT = Scale(
    num_nodes=16,
    ranks_per_node=4,
    nfitpoints=50,
    nexchanges=20,
    fitpoint_spacing=5e-3,
    nmpiruns=10,
)

SCALES = {"quick": QUICK, "default": DEFAULT}


def resolve_scale(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


#: Drift-stability presets per machine (calibrated in EXPERIMENTS.md):
#: Jupiter's clocks are stable (the paper's JK is accurate there); Hydra's
#: "clock drift between processes changes rather quickly"; Titan shows the
#: largest variance.
MACHINE_TIME_SOURCES: dict[str, TimeSourceSpec] = {
    "jupiter": CLOCK_GETTIME.with_(skew_walk_sigma=4e-8),
    "hydra": CLOCK_GETTIME.with_(skew_walk_sigma=2e-7),
    "titan": CLOCK_GETTIME.with_(skew_walk_sigma=3e-7),
}


@dataclass
class SyncRun:
    """One scatter point: one algorithm config in one simulated mpirun."""

    label: str
    duration: float
    #: wait_time -> measured max |offset| across checked clients (seconds).
    max_offsets: dict[float, float] = field(default_factory=dict)


@dataclass
class SyncCampaignResult:
    """All runs of a Figs. 3–6-style accuracy campaign."""

    machine: str
    nprocs: int
    wait_times: tuple[float, ...]
    runs: list[SyncRun] = field(default_factory=list)

    def by_label(self) -> dict[str, list[SyncRun]]:
        out: dict[str, list[SyncRun]] = {}
        for run in self.runs:
            out.setdefault(run.label, []).append(run)
        return out

    def mean_offset(self, label: str, wait: float) -> float:
        runs = [r for r in self.runs if r.label == label]
        return float(np.mean([r.max_offsets[wait] for r in runs]))

    def mean_duration(self, label: str) -> float:
        runs = [r for r in self.runs if r.label == label]
        return float(np.mean([r.duration for r in runs]))


def run_sync_accuracy_campaign(
    spec: MachineSpec,
    labels: Sequence[str],
    scale: str | Scale = "quick",
    wait_times: Sequence[float] = (0.0, 10.0),
    sample_fraction: float = 1.0,
    seed: int = 0,
    time_source: TimeSourceSpec | None = None,
    jobs: int | None = 1,
) -> SyncCampaignResult:
    """Figs. 3–6 engine: accuracy-vs-duration for several algorithm labels.

    **Seed derivation.**  One root ``SeedSequence(seed)`` spawns one child
    per ``(label, run_idx)`` pair in submission order (label-major), so
    every simulated mpirun draws from a provably independent stream.  The
    previous scheme folded ``crc32(label) % 997`` into an integer, which
    could collide across labels/seeds; the spawn-based derivation cannot,
    and it depends only on the job's position — not on which process runs
    it — which is what makes ``jobs=N`` bit-identical to ``jobs=1``.

    ``jobs`` fans the independent mpiruns out over worker processes
    (``None``/``0`` = all cores); results are collected in submission
    order either way.
    """
    sc = resolve_scale(scale)
    ts = time_source or MACHINE_TIME_SOURCES.get(spec.name, CLOCK_GETTIME)
    machine = spec.machine(sc.num_nodes, sc.ranks_per_node)
    result = SyncCampaignResult(
        machine=spec.name,
        nprocs=machine.num_ranks,
        wait_times=tuple(wait_times),
    )

    labels = list(labels)
    seeds = job_seeds(seed, len(labels) * sc.nmpiruns)
    specs: list[JobSpec] = []
    for label_idx, label in enumerate(labels):
        spacing = sc.fitpoint_spacing
        if label.strip().lower().startswith("jk"):
            spacing *= sc.jk_spacing_factor
        for run_idx in range(sc.nmpiruns):
            specs.append(JobSpec(
                fn=_campaign_job,
                kwargs=dict(
                    machine_spec=spec,
                    label=label,
                    fitpoint_spacing=spacing,
                    nexchanges=sc.nexchanges,
                    wait_times=tuple(wait_times),
                    sample_fraction=sample_fraction,
                    time_source=ts,
                    num_nodes=sc.num_nodes,
                    ranks_per_node=sc.ranks_per_node,
                    seedseq=seeds[label_idx * sc.nmpiruns + run_idx],
                    scope=f"{label}#{run_idx}",
                ),
                label=f"{label}#{run_idx}",
            ))
    result.runs = run_jobs(specs, jobs=jobs)
    return result


def _campaign_job(
    machine_spec: MachineSpec,
    label: str,
    fitpoint_spacing: float,
    nexchanges: int,
    wait_times: tuple[float, ...],
    sample_fraction: float,
    time_source: TimeSourceSpec,
    num_nodes: int,
    ranks_per_node: int,
    seedseq: np.random.SeedSequence,
    scope: str = "",
) -> SyncRun:
    """One campaign scatter point; runs in-process or in a worker.

    Everything (machine, algorithm, offset measurer) is reconstructed
    from primitive, picklable arguments so the job behaves identically
    wherever it executes.  A fresh algorithm instance per run matters:
    algorithms may carry per-engine caches.

    With a telemetry bank in the run context, the job deposits its
    clock-health series (per-rank sync duration and estimated-vs-rank-0
    global-clock error over the accuracy-check window, plus whatever the
    engine/sync layers sample) under ``scope`` — the executor merges the
    per-job banks back into the campaign-level bank.
    """
    machine = machine_spec.machine(num_nodes, ranks_per_node)
    algorithm = algorithm_from_label(label, fitpoint_spacing=fitpoint_spacing)
    check_offset_alg = SKaMPIOffset(nexchanges=nexchanges)
    sample_seed = seed_int(seedseq)
    ctx = current_context()
    bank, prof = ctx.timeseries, ctx.profiler

    main = sync_then_check(
        algorithm, check_offset_alg, wait_times,
        sample_fraction=sample_fraction, sample_seed=sample_seed,
    )

    with (
        bank.scoped(scope) if bank is not None else nullcontext(),
        # Per-algorithm attribution: every engine/sync zone of this
        # mpirun nests under the algorithm label, so merged campaign
        # profiles break wall time down per algorithm family.  Runs of
        # one label aggregate into one subtree (the run index is not
        # part of the zone name on purpose).
        prof.zone(f"job:{label}") if prof is not None else nullcontext(),
    ):
        sim = Simulation(
            machine=machine,
            network=machine_spec.network(),
            time_source=time_source,
            seed=seedseq,
            fabric=machine_spec.fabric(machine.num_nodes),
        )
        values = sim.run(main).values
        duration, max_offsets = sync_check_outcome(values)
        if ctx.check is not None:
            # Sanitize the synchronized clocks too: every rank's global
            # clock must stay finite, monotone, and slope-≈1 over the
            # accuracy-check window (no fault schedule runs here, so
            # monotonicity is a hard requirement).
            span = max(wait_times) if wait_times else 1.0
            for rank, value in enumerate(values):
                check_global_clock(
                    value[2], duration, duration + max(span, 1.0),
                    rank=rank, label=scope,
                )
        if bank is not None:
            sample_clock_health(
                bank, values, duration, wait_times, npoints=25
            )
    return SyncRun(label=label, duration=duration, max_offsets=max_offsets)


def campaign_summary(result: SyncCampaignResult) -> dict:
    """Canonical, JSON-ready summary of a campaign result.

    Contains every scatter point (label, duration, per-wait max offsets)
    in submission order plus the campaign shape — exactly the data the
    figures are drawn from.  Floats are kept at full precision: the
    simulator is deterministic per seed, so the golden tests pin the
    summary byte-for-byte (see ``tests/experiments/test_golden.py``).
    """
    return {
        "machine": result.machine,
        "nprocs": result.nprocs,
        "wait_times": list(result.wait_times),
        "runs": [
            {
                "label": run.label,
                "duration": run.duration,
                "max_offsets": {
                    f"{wait:g}": offset
                    for wait, offset in sorted(run.max_offsets.items())
                },
            }
            for run in result.runs
        ],
    }


def summary_json(result: SyncCampaignResult) -> str:
    """``campaign_summary`` as deterministic JSON (sorted keys, LF EOL)."""
    return json.dumps(
        campaign_summary(result), indent=2, sort_keys=True
    ) + "\n"
