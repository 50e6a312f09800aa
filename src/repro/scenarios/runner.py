"""Run one scenario × algorithm cell and score the degradation.

A *cell* pairs one :class:`~repro.faults.schedule.FaultSchedule` with one
algorithm label (JK/HCA/HCA2/HCA3/hierarchical/ClockPropSync) on a small
machine.  Each cell runs ``rounds`` simulated mpiruns twice — once clean
(baseline) and once under the scenario, from identical seed streams — so
the adversary's damage is the only difference.  Per round the harness
synchronizes, runs the paper's accuracy check, and scores both the
*measured* max offset (what honest ranks believe, which byzantine lies
poison) and the *ground-truth* max error (what the oracle clocks say,
which lies cannot hide).

Churn adversaries reshape the machine between rounds (each round is one
``mpirun``); every other kind acts inside the run through
:class:`~repro.faults.injector.FaultInjector`.

Everything is reconstructed from primitive picklable arguments so cells
fan out over :mod:`repro.parallel` workers bit-identically.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.accuracy import (
    ground_truth_accuracy,
    sample_clock_health,
    sync_check_outcome,
    sync_then_check,
)
from repro.cluster.machines import MACHINES
from repro.context import current_context
from repro.faults.schedule import FaultSchedule
from repro.parallel import seed_int
from repro.simmpi.simulation import Simulation
from repro.sync.offset import SKaMPIOffset
from repro.sync.registry import algorithm_from_label

#: Ratio floor: degradation is adversarial/max(baseline, this).
_RATIO_FLOOR = 1e-9


@dataclass
class RoundResult:
    """One simulated mpirun of a cell (baseline or adversarial)."""

    num_nodes: int
    num_ranks: int
    duration: float
    #: wait_time -> measured max |offset| across checked clients.
    max_offsets: dict[float, float] = field(default_factory=dict)
    #: Oracle max |global_i - global_0| right after the check window.
    ground_truth_error: float = 0.0

    def worst_offset(self) -> float:
        return max(self.max_offsets.values()) if self.max_offsets else 0.0

    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "num_ranks": self.num_ranks,
            "duration": self.duration,
            "max_offsets": {
                f"{wait:g}": offset
                for wait, offset in sorted(self.max_offsets.items())
            },
            "ground_truth_error": self.ground_truth_error,
        }


@dataclass
class CellResult:
    """Outcome of one scenario × algorithm cell."""

    scenario: str
    label: str
    seed: int
    error_budget: float
    baseline: list[RoundResult] = field(default_factory=list)
    adversarial: list[RoundResult] = field(default_factory=list)
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
            "baseline": [r.to_dict() for r in self.baseline],
            "adversarial": [r.to_dict() for r in self.adversarial],
            "baseline_max_offset": self.baseline_max_offset,
            "adversarial_max_offset": self.adversarial_max_offset,
            "ground_truth_error": self.ground_truth_error,
            "degradation": self.degradation,
            "violations": list(self.violations),
        }


def _run_one(
    scenario: FaultSchedule | None,
    label: str,
    spec,
    num_nodes: int,
    ranks_per_node: int,
    nexchanges: int,
    fitpoint_spacing: float,
    wait_times: tuple[float, ...],
    run_seed: int,
    check: str | None,
    scope: str,
) -> RoundResult:
    """One simulated mpirun; adversarial when ``scenario`` is given.

    ``run_seed`` is a plain integer so the baseline and adversarial
    twins of a round can each build a *fresh* SeedSequence from it —
    sharing one sequence object would let the first run's child spawns
    shift the second run's streams.
    """
    machine = spec.machine(num_nodes, ranks_per_node)
    algorithm = algorithm_from_label(
        label, fitpoint_spacing=fitpoint_spacing
    )
    check_offset_alg = SKaMPIOffset(nexchanges=nexchanges)
    seedseq = np.random.SeedSequence(run_seed)
    sample_seed = seed_int(seedseq)
    bank = current_context().timeseries

    main = sync_then_check(
        algorithm, check_offset_alg, wait_times, sample_seed=sample_seed
    )

    with bank.scoped(scope) if bank is not None else nullcontext():
        sim = Simulation(
            machine=machine,
            network=spec.network(),
            seed=seedseq,
            fabric=spec.fabric(machine.num_nodes),
            faults=scenario,
            check=check,
        )
        values = sim.run(main).values
        duration, max_offsets = sync_check_outcome(values)
        span = max(wait_times) if wait_times else 0.0
        truth = ground_truth_accuracy(
            [v[2] for v in values], duration + span
        )
        if bank is not None:
            sample_clock_health(
                bank, values, duration, wait_times, npoints=15
            )
    return RoundResult(
        num_nodes=machine.num_nodes,
        num_ranks=machine.num_ranks,
        duration=duration,
        max_offsets=max_offsets,
        ground_truth_error=truth,
    )


def run_scenario_cell(
    scenario: FaultSchedule | dict,
    label: str,
    *,
    spec_name: str = "jupiter",
    num_nodes: int = 4,
    ranks_per_node: int = 2,
    nexchanges: int = 4,
    fitpoint_spacing: float = 2e-3,
    rounds: int = 2,
    wait_times: tuple[float, ...] = (0.0,),
    seed: int = 0,
    check: str | None = None,
    include_baseline: bool = True,
) -> CellResult:
    """Run one scenario × algorithm cell; returns the scored result.

    ``seed`` spawns one child stream per round; baseline and adversarial
    twins of a round start from the *same* child, so the adversary is
    the only difference between them.  Violations recorded on the
    result: non-finite measurements and error-budget breaches (both
    measured and ground-truth) — the fuzzer treats any entry as a
    failing cell.
    """
    if isinstance(scenario, dict):
        scenario = FaultSchedule.from_dict(scenario)
    spec = MACHINES[spec_name]
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
    for round_idx in range(rounds):
        nodes = num_nodes
        for adv in churn:
            nodes = min(nodes, adv.nodes_at(round_idx, num_nodes))
        if include_baseline:
            cell.baseline.append(_run_one(
                None, label, spec, num_nodes, ranks_per_node,
                nexchanges, fitpoint_spacing, wait_times,
                round_seeds[round_idx], check,
                scope=f"{scenario.name}/{label}/base#r{round_idx}",
            ))
        cell.adversarial.append(_run_one(
            scenario, label, spec, nodes, ranks_per_node,
            nexchanges, fitpoint_spacing, wait_times,
            round_seeds[round_idx], check,
            scope=f"{scenario.name}/{label}/adv#r{round_idx}",
        ))
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
