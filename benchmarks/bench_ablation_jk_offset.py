"""Ablation: SKaMPI-Offset vs Mean-RTT-Offset inside JK.

The paper calls this a side contribution: swapping JK's Mean-RTT-Offset
for SKaMPI-Offset "boosted the global clock precision of JK".  The
mechanism is minimum-delay filtering: a min-filtered ping-pong is immune
to jitter tails that corrupt an averaged RTT estimate.
"""

from repro.analysis.reporting import Table, format_table
from repro.cluster.machines import JUPITER
from repro.experiments.common import resolve_scale, run_sync_accuracy_campaign

from conftest import emit


def run_ablation(scale):
    sc = resolve_scale(scale)
    n = sc.nfitpoints
    e = max(5, sc.nexchanges // 2)
    labels = [
        f"jk/{n}/skampi_offset/{e}",
        f"jk/{n}/mean_rtt_offset/{e}",
    ]
    return run_sync_accuracy_campaign(
        spec=JUPITER, labels=labels, scale=sc, wait_times=(0.0, 10.0),
        seed=0,
    )


def test_ablation_jk_offset_algorithm(benchmark, scale):
    result = benchmark.pedantic(run_ablation, args=(scale,), rounds=1,
                                iterations=1)
    table = Table(
        title="Ablation: JK with SKaMPI-Offset vs Mean-RTT-Offset",
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
    skampi = next(l for l in result.by_label() if "skampi" in l)
    meanrtt = next(l for l in result.by_label() if "mean_rtt" in l)
    # Paper shape: SKaMPI-Offset improves JK's precision.
    assert result.mean_offset(skampi, 0.0) <= result.mean_offset(
        meanrtt, 0.0
    )
