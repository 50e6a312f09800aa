"""Ablation: recompute_intercept on/off for HCA3.

The paper adds an optional per-pair intercept re-anchoring after each
linear regression (Algorithm 2, ``recompute_intercept``).  Its effect is
on the *instantaneous* offset right after synchronization: the anchored
intercept absorbs accumulated fit error at measurement time.
"""

from repro.analysis.reporting import Table, format_table
from repro.cluster.machines import JUPITER
from repro.experiments.common import resolve_scale, run_sync_accuracy_campaign

from conftest import emit


def run_ablation(scale):
    sc = resolve_scale(scale)
    n, e = sc.nfitpoints, sc.nexchanges
    labels = [
        f"hca3/{n}/skampi_offset/{e}",
        f"hca3/recompute_intercept/{n}/skampi_offset/{e}",
    ]
    return run_sync_accuracy_campaign(
        spec=JUPITER, labels=labels, scale=sc, wait_times=(0.0, 10.0),
        seed=0,
    )


def test_ablation_recompute_intercept(benchmark, scale):
    result = benchmark.pedantic(run_ablation, args=(scale,), rounds=1,
                                iterations=1)
    table = Table(
        title="Ablation: HCA3 with/without recompute_intercept",
        columns=["configuration", "max offset @0s [us]",
                 "max offset @10s [us]"],
    )
    for label in result.by_label():
        table.add_row(
            label,
            f"{result.mean_offset(label, 0.0) * 1e6:.3f}",
            f"{result.mean_offset(label, 10.0) * 1e6:.3f}",
        )
    emit(format_table(table))
    # Both variants must produce usable clocks; the re-anchored variant
    # must not be worse at 0 s by more than measurement noise.
    for label in result.by_label():
        assert result.mean_offset(label, 0.0) < 5e-6
