"""Ablation: number of fit points vs accuracy and duration.

The regression's slope error scales with the fit-point count and the
measurement baseline, so halving the fit points roughly halves the sync
duration at the cost of a worse 10-second extrapolation — the trade-off
visible between the paired configurations of Figs. 4-6.
"""

from repro.analysis.reporting import Table, format_table
from repro.cluster.machines import JUPITER
from repro.experiments.common import resolve_scale, run_sync_accuracy_campaign

from conftest import emit


def run_ablation(scale):
    sc = resolve_scale(scale)
    e = sc.nexchanges
    budgets = [max(4, sc.nfitpoints // 4), sc.nfitpoints // 2,
               sc.nfitpoints, sc.nfitpoints * 2]
    labels = [f"hca3/{n}/skampi_offset/{e}" for n in budgets]
    return run_sync_accuracy_campaign(
        spec=JUPITER, labels=labels, scale=sc, wait_times=(0.0, 10.0),
        seed=0,
    )


def test_ablation_fitpoints(benchmark, scale):
    result = benchmark.pedantic(run_ablation, args=(scale,), rounds=1,
                                iterations=1)
    table = Table(
        title="Ablation: HCA3 fit-point budget",
        columns=["configuration", "duration [s]",
                 "max offset @10s [us]"],
    )
    rows = []
    for label in result.by_label():
        nfit = int(label.split("/")[1])
        rows.append((nfit, label))
    for nfit, label in sorted(rows):
        table.add_row(
            label,
            f"{result.mean_duration(label):.3f}",
            f"{result.mean_offset(label, 10.0) * 1e6:.3f}",
        )
    emit(format_table(table))
    # Duration must scale with the fit-point budget.
    ordered = [label for _, label in sorted(rows)]
    durations = [result.mean_duration(l) for l in ordered]
    assert durations == sorted(durations)
