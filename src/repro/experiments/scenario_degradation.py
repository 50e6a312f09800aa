"""Adversarial degradation tables: scenario presets × sync algorithms.

Not a figure of the paper, but the paper's central claim (hierarchical
synchronization holds clock error at the microsecond level) invites the
adversarial follow-up: *how gracefully does each algorithm family
degrade when the honest-clock and well-behaved-link assumptions break?*
This target runs the adversary presets (:mod:`repro.faults.scenarios`) against
a grid of algorithm labels; each cell runs baseline and adversarial
twins from identical seed streams (:mod:`repro.scenarios.runner`) and
reports the measured max offset ratio plus the ground-truth error the
adversary actually caused (which byzantine lies cannot hide).

Run::

    python -m repro.experiments scenario_degradation --scale quick

The per-cell summaries are deterministic per seed and pinned
byte-for-byte by ``tests/experiments/test_scenario_golden.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.parallel import JobSpec, job_seeds, run_jobs, seed_int
from repro.faults.scenarios import make_scenario
from repro.scenarios.runner import CellResult, run_scenario_cell

#: The table's rows.  The order fixes each cell's job seed.
ROWS = (
    "byzantine_rank",
    "congested_fabric",
    "delay_attack",
    "rank_churn",
    "region_tiers",
)

#: Experiment size per scale:
#: (nodes, ranks/node, rounds, nexchanges, labels).
_SCALE = {
    "quick": (
        4, 2, 2, 4,
        (
            "hca/6/skampi_offset/4",
            "jk/6/skampi_offset/4",
        ),
    ),
    "default": (
        8, 2, 3, 8,
        (
            "hca/6/skampi_offset/4",
            "hca2/6/skampi_offset/4",
            "hca3/recompute_intercept/6/skampi_offset/4",
            "jk/6/skampi_offset/4",
            "Top/hca3/6/skampi_offset/4/Bottom/ClockPropagation",
            "clockpropagation",
        ),
    ),
}


@dataclass
class ScenarioDegradationResult:
    """All cells of one preset × label degradation sweep."""

    scale: str
    seed: int
    num_nodes: int
    ranks_per_node: int
    rounds: int
    labels: tuple[str, ...]
    cells: list[CellResult] = field(default_factory=list)

    def cell(self, scenario: str, label: str) -> CellResult:
        for c in self.cells:
            if c.scenario == scenario and c.label == label:
                return c
        raise KeyError(f"no cell ({scenario!r}, {label!r})")


def run(
    scale: str = "quick",
    seed: int = 0,
    jobs: int | None = 1,
) -> ScenarioDegradationResult:
    """Run the full preset × label grid; cells fan out over ``jobs``.

    One root seed spawns one child per cell in submission order
    (preset-major), so every cell draws from an independent stream and
    ``jobs=N`` is bit-identical to ``jobs=1``.
    """
    num_nodes, ranks_per_node, rounds, nexchanges, labels = _SCALE[scale]
    result = ScenarioDegradationResult(
        scale=scale,
        seed=seed,
        num_nodes=num_nodes,
        ranks_per_node=ranks_per_node,
        rounds=rounds,
        labels=tuple(labels),
    )
    seeds = job_seeds(seed, len(ROWS) * len(labels))
    specs: list[JobSpec] = []
    for preset_idx, preset in enumerate(ROWS):
        scenario = make_scenario(preset)
        for label_idx, label in enumerate(labels):
            specs.append(JobSpec(
                fn=run_scenario_cell,
                # The scenario travels as its (picklable) dict form.
                args=(scenario.to_dict(), label),
                kwargs=dict(
                    num_nodes=num_nodes,
                    ranks_per_node=ranks_per_node,
                    nexchanges=nexchanges,
                    rounds=rounds,
                    seed=seed_int(
                        seeds[preset_idx * len(labels) + label_idx]
                    ),
                ),
                label=f"{preset}x{label}",
            ))
    result.cells = run_jobs(specs, jobs=jobs)
    return result


def summary(result: ScenarioDegradationResult) -> dict:
    """Canonical, JSON-ready summary (full precision, goldenable)."""
    return {
        "scale": result.scale,
        "seed": result.seed,
        "num_nodes": result.num_nodes,
        "ranks_per_node": result.ranks_per_node,
        "rounds": result.rounds,
        "labels": list(result.labels),
        "cells": [cell.to_dict() for cell in result.cells],
    }


def summary_json(result: ScenarioDegradationResult) -> str:
    """``summary`` as deterministic JSON (sorted keys, LF EOL)."""
    return json.dumps(summary(result), indent=2, sort_keys=True) + "\n"


def format_result(result: ScenarioDegradationResult) -> str:
    """Per-(scenario, algorithm) degradation table."""
    lines = [
        f"Adversarial degradation — {result.num_nodes}x"
        f"{result.ranks_per_node} ranks, {result.rounds} round(s)/cell, "
        f"seed {result.seed}",
        "",
        f"  {'scenario':<18} {'algorithm':<28} {'baseline':>10} "
        f"{'adversarial':>12} {'truth':>10} {'degrade':>8} {'viol':>5}",
    ]
    for cell in result.cells:
        label = (
            cell.label if len(cell.label) <= 28 else cell.label[:25] + "..."
        )
        lines.append(
            f"  {cell.scenario:<18} {label:<28} "
            f"{cell.baseline_max_offset:>10.3g} "
            f"{cell.adversarial_max_offset:>12.3g} "
            f"{cell.ground_truth_error:>10.3g} "
            f"{cell.degradation:>8.3g} "
            f"{len(cell.violations):>5d}"
        )
    worst = max(
        result.cells, key=lambda c: c.degradation, default=None
    )
    if worst is not None:
        lines.append("")
        lines.append(
            f"  worst degradation: {worst.degradation:.3g}x "
            f"({worst.scenario} vs {worst.label})"
        )
    total = sum(len(c.violations) for c in result.cells)
    lines.append(f"  error-budget/sanity violations: {total}")
    return "\n".join(lines)
