"""Shared experiment machinery: scales, sync-accuracy campaign runner.

The accuracy campaign (used by Figs. 3–6) mirrors the paper's methodology:
for each algorithm configuration, run ``nmpiruns`` independent simulated
jobs (fresh clocks and network jitter per run — a new ``mpirun``); in each
job, synchronize clocks, then run CHECK_CLOCK_ACCURACY (Algorithm 6) at
each waiting time (:func:`repro.analysis.accuracy.run_sync_cell`, the
cell the scenario harness runs too).  One scatter point of Figs. 3–6 is
one job: x = the synchronization duration (max across ranks, including
communicator creation for hierarchical schemes), y = the measured
maximum clock offset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.accuracy import SyncRun, run_sync_cell
from repro.analysis.reporting import Table, format_table
from repro.cluster.machines import MachineSpec
from repro.parallel import JobSpec, job_seeds, run_jobs
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec


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
    ts = MACHINE_TIME_SOURCES.get(spec.name, CLOCK_GETTIME)
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
                fn=run_sync_cell,
                args=(spec, label),
                kwargs=dict(
                    num_nodes=sc.num_nodes,
                    ranks_per_node=sc.ranks_per_node,
                    nexchanges=sc.nexchanges,
                    fitpoint_spacing=spacing,
                    wait_times=tuple(wait_times),
                    seedseq=seeds[label_idx * sc.nmpiruns + run_idx],
                    scope=f"{label}#{run_idx}",
                    npoints=25,
                    time_source=ts,
                    sample_fraction=sample_fraction,
                ),
                label=f"{label}#{run_idx}",
            ))
    result.runs = run_jobs(specs, jobs=jobs)
    return result


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
            {key: run[key] for key in ("label", "duration", "max_offsets")}
            for run in map(SyncRun.to_dict, result.runs)
        ],
    }


def summary_json(result: SyncCampaignResult) -> str:
    """``campaign_summary`` as deterministic JSON (sorted keys, LF EOL)."""
    return json.dumps(
        campaign_summary(result), indent=2, sort_keys=True
    ) + "\n"


def format_campaign(
    result: SyncCampaignResult, title: str, first_column: str
) -> str:
    """Figs. 3–6 table: mean duration and mean max offset at 0 s and 10 s
    per configuration, in submission order."""
    table = Table(
        title=title,
        columns=[first_column, "mean duration [s]",
                 "max offset @0s [us]", "max offset @10s [us]"],
    )
    for label in result.by_label():
        table.add_row(
            label,
            f"{result.mean_duration(label):.3f}",
            f"{result.mean_offset(label, 0.0) * 1e6:.3f}",
            f"{result.mean_offset(label, 10.0) * 1e6:.3f}",
        )
    return format_table(table)
