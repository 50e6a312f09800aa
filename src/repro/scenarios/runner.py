"""Run one scenario × algorithm cell and score the degradation.

A *cell* pairs one :class:`~repro.faults.schedule.FaultSchedule` with one
algorithm label (JK/HCA/HCA2/HCA3/hierarchical/ClockPropSync) on a small
machine.  Each cell runs ``rounds`` simulated mpiruns twice — once clean
(baseline) and once under the scenario, from identical seed streams — so
the adversary's damage is the only difference.  Each run is one
:func:`~repro.analysis.accuracy.run_sync_cell`, the mpirun behind the
Figs. 3–6 campaigns: it synchronizes, runs the paper's accuracy check,
and scores both the *measured* max offset (what honest ranks believe,
which byzantine lies poison) and the *ground-truth* max error (what the
oracle clocks say, which lies cannot hide).

Churn adversaries reshape the machine between rounds (each round is one
``mpirun``); every other kind acts inside the run through
:class:`~repro.faults.injector.FaultInjector`.

Everything is reconstructed from primitive picklable arguments so cells
fan out over :mod:`repro.parallel` workers bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.accuracy import SyncRun, run_sync_cell
from repro.cluster.machines import JUPITER
from repro.faults.schedule import FaultSchedule
from repro.parallel import seed_int

#: Ratio floor: degradation is adversarial/max(baseline, this).
_RATIO_FLOOR = 1e-9

#: Every cell runs on Jupiter with this fit-point spacing and checks
#: accuracy once, right after the sync.
_FITPOINT_SPACING = 2e-3
_WAIT_TIMES = (0.0,)


def _round_dict(run: SyncRun) -> dict:
    """One round as the cell summary holds it: the run minus the label
    (the cell's own)."""
    out = run.to_dict()
    del out["label"]
    return out


@dataclass
class CellResult:
    """Outcome of one scenario × algorithm cell."""

    scenario: str
    label: str
    seed: int
    error_budget: float
    baseline: list[SyncRun] = field(default_factory=list)
    adversarial: list[SyncRun] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def baseline_max_offset(self) -> float:
        return max((r.worst_offset() for r in self.baseline), default=0.0)

    @property
    def adversarial_max_offset(self) -> float:
        return max(
            (r.worst_offset() for r in self.adversarial), default=0.0
        )

    @property
    def ground_truth_error(self) -> float:
        return max(
            (r.ground_truth_error for r in self.adversarial), default=0.0
        )

    @property
    def degradation(self) -> float:
        """Adversarial / baseline measured max offset (≥ floor)."""
        return self.adversarial_max_offset / max(
            self.baseline_max_offset, _RATIO_FLOOR
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "label": self.label,
            "seed": self.seed,
            "error_budget": self.error_budget,
            "baseline": [_round_dict(r) for r in self.baseline],
            "adversarial": [_round_dict(r) for r in self.adversarial],
            "baseline_max_offset": self.baseline_max_offset,
            "adversarial_max_offset": self.adversarial_max_offset,
            "ground_truth_error": self.ground_truth_error,
            "degradation": self.degradation,
            "violations": list(self.violations),
        }


def run_scenario_cell(
    scenario: FaultSchedule | dict,
    label: str,
    *,
    num_nodes: int = 4,
    ranks_per_node: int = 2,
    nexchanges: int = 4,
    rounds: int = 2,
    seed: int = 0,
) -> CellResult:
    """Run one scenario × algorithm cell; returns the scored result.

    ``seed`` spawns one child stream per round; baseline and adversarial
    twins of a round start from the *same* child, so the adversary is
    the only difference between them.  Each twin builds a fresh
    ``SeedSequence`` from the round's integer seed — sharing one
    sequence object would let the first run's child spawns shift the
    second run's streams.  The runs attach the hooks and the check
    mode of the run context.  Violations recorded on the result:
    non-finite measurements and error-budget breaches (both measured
    and ground-truth) — the fuzzer treats any entry as a failing cell.
    """
    if isinstance(scenario, dict):
        scenario = FaultSchedule.from_dict(scenario)
    # Validate against the *base* shape the scenario was authored for;
    # each round's Simulation validates again against the shape churn
    # left it, so rank/link keys must fit the churn floor.
    scenario.validate(
        num_ranks=num_nodes * ranks_per_node, num_nodes=num_nodes
    )
    churn = scenario.of_kind("churn")
    round_seeds = [
        seed_int(child)
        for child in np.random.SeedSequence(seed).spawn(rounds)
    ]
    cell = CellResult(
        scenario=scenario.name,
        label=label,
        seed=seed,
        error_budget=scenario.error_budget,
    )

    def twin(
        round_idx: int, phase: str, nodes: int, faults: FaultSchedule | None
    ) -> SyncRun:
        return run_sync_cell(
            JUPITER, label,
            num_nodes=nodes,
            ranks_per_node=ranks_per_node,
            nexchanges=nexchanges,
            fitpoint_spacing=_FITPOINT_SPACING,
            wait_times=_WAIT_TIMES,
            seedseq=np.random.SeedSequence(round_seeds[round_idx]),
            scope=f"{scenario.name}/{label}/{phase}#r{round_idx}",
            npoints=15,
            faults=faults,
        )

    for round_idx in range(rounds):
        nodes = num_nodes
        for adv in churn:
            nodes = min(nodes, adv.nodes_at(round_idx, num_nodes))
        cell.baseline.append(twin(round_idx, "base", num_nodes, None))
        cell.adversarial.append(twin(round_idx, "adv", nodes, scenario))
    _score(cell)
    return cell


def _score(cell: CellResult) -> None:
    """Record error-budget and sanity violations on the cell."""
    for phase, rounds in (
        ("baseline", cell.baseline),
        ("adversarial", cell.adversarial),
    ):
        for r in rounds:
            finite = (
                math.isfinite(r.duration)
                and math.isfinite(r.ground_truth_error)
                and all(math.isfinite(v) for v in r.max_offsets.values())
            )
            if not finite:
                cell.violations.append(f"nonfinite:{phase}")
    measured = cell.adversarial_max_offset
    if measured > cell.error_budget:
        cell.violations.append(
            f"error_budget:measured={measured:.6g}"
            f">{cell.error_budget:.6g}"
        )
    truth = cell.ground_truth_error
    if truth > cell.error_budget:
        cell.violations.append(
            f"error_budget:ground_truth={truth:.6g}"
            f">{cell.error_budget:.6g}"
        )
