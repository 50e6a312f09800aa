"""Shared engine for the hierarchical-vs-flat comparisons (Figs. 4–6)."""

from __future__ import annotations

from repro.cluster.machines import MachineSpec
from repro.experiments.common import (
    Scale,
    SyncCampaignResult,
    format_campaign,
    resolve_scale,
    run_sync_accuracy_campaign,
)


def hier_labels_for(scale: Scale) -> list[str]:
    """The paper's Figs. 4–6 configurations: two HCA3 fit-point budgets,
    flat and hierarchical (Top HCA3 + Bottom ClockPropagation)."""
    n = scale.nfitpoints
    e = scale.nexchanges
    half = max(2, n // 2)
    return [
        f"hca3/recompute_intercept/{n}/skampi_offset/{e}",
        f"hca3/recompute_intercept/{half}/skampi_offset/{e}",
        f"Top/hca3/{n}/skampi_offset/{e}/Bottom/ClockPropagation",
        f"Top/hca3/{half}/skampi_offset/{e}/Bottom/ClockPropagation",
    ]


def run_hier_campaign(
    spec: MachineSpec,
    scale: str | Scale,
    seed: int = 0,
    sample_fraction: float = 1.0,
    jobs: int | None = 1,
) -> SyncCampaignResult:
    sc = resolve_scale(scale)
    return run_sync_accuracy_campaign(
        spec=spec,
        labels=hier_labels_for(sc),
        scale=sc,
        wait_times=(0.0, 10.0),
        sample_fraction=sample_fraction,
        seed=seed,
        jobs=jobs,
    )


def format_hier_result(result: SyncCampaignResult, figure: str) -> str:
    return format_campaign(
        result,
        f"{figure}: hierarchical (H2HCA) vs flat HCA3 "
        f"({result.machine}, {result.nprocs} processes)",
        "configuration",
    )
