"""Ablation shapes at quick scale, seed 0.

Each test runs one design choice against its alternative on a Jupiter-
shaped machine and pins the direction the paper (or the extension it
motivates) predicts: fit-point budget vs duration, HCA3's
``recompute_intercept``, JK's offset algorithm, periodic re-sync over a
long horizon, and the window scheme's outlier cascade vs Round-Time.
"""

from repro.analysis.accuracy import ground_truth_accuracy
from repro.bench.schemes import RoundTimeScheme, WindowScheme
from repro.cluster.machines import JUPITER
from repro.experiments.common import QUICK, run_sync_accuracy_campaign
from repro.simmpi.network import Level, LinkParams, NetworkModel
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync.hierarchical import h2hca
from repro.sync.resync import PeriodicResyncClock


def jupiter_campaign(labels):
    return run_sync_accuracy_campaign(
        spec=JUPITER, labels=labels, scale=QUICK, wait_times=(0.0, 10.0),
        seed=0,
    )


def quick_h2hca():
    return h2hca(nfitpoints=QUICK.nfitpoints,
                 fitpoint_spacing=QUICK.fitpoint_spacing)


def test_sync_duration_grows_with_fitpoint_budget():
    n, e = QUICK.nfitpoints, QUICK.nexchanges
    budgets = [max(4, n // 4), n // 2, n, n * 2]
    res = jupiter_campaign([f"hca3/{b}/skampi_offset/{e}" for b in budgets])
    durations = [res.mean_duration(f"hca3/{b}/skampi_offset/{e}")
                 for b in budgets]
    assert durations == sorted(durations)


def test_recompute_intercept_keeps_clocks_accurate():
    n, e = QUICK.nfitpoints, QUICK.nexchanges
    res = jupiter_campaign([f"hca3/{n}/skampi_offset/{e}",
                            f"hca3/recompute_intercept/{n}/skampi_offset/{e}"])
    for label in res.by_label():
        assert res.mean_offset(label, 0.0) < 5e-6


def test_skampi_offset_improves_jk():
    n, e = QUICK.nfitpoints, max(5, QUICK.nexchanges // 2)
    skampi, mean_rtt = f"jk/{n}/skampi_offset/{e}", f"jk/{n}/mean_rtt_offset/{e}"
    res = jupiter_campaign([skampi, mean_rtt])
    assert res.mean_offset(skampi, 0.0) <= res.mean_offset(mean_rtt, 0.0)


def test_periodic_resync_bounds_error_over_60s():
    state: dict = {}

    def main(ctx, comm):
        resync = state.setdefault(
            ctx.rank, PeriodicResyncClock(quick_h2hca(), max_model_age=15.0))
        initial = current = yield from resync.ensure(comm, ctx)
        for _ in range(6):
            yield from ctx.elapse(10.0)
            current = yield from resync.ensure(comm, ctx)
        return initial, current, resync.resync_count, ctx.now

    sim = Simulation(
        machine=JUPITER.machine(QUICK.num_nodes, QUICK.ranks_per_node),
        network=JUPITER.network(),
        time_source=CLOCK_GETTIME.with_(skew_walk_sigma=5e-7), seed=0,
    )
    values = sim.run(main).values
    t_eval = max(v[3] for v in values) + 0.1
    err_single = ground_truth_accuracy([v[0] for v in values], t_eval)
    err_resync = ground_truth_accuracy([v[1] for v in values], t_eval)
    assert values[0][2] > 1
    assert err_resync < err_single / 2


def test_round_time_keeps_more_valid_samples_than_window_under_outliers():
    nreps = 60
    # An IB-like fabric with frequent large outliers (congestion).
    noisy = NetworkModel(
        name="noisy",
        levels={
            Level.NODE: LinkParams(latency=0.45e-6, bandwidth=6e9,
                                   jitter_scale=0.04e-6),
            Level.REMOTE: LinkParams(
                latency=1.6e-6, bandwidth=1.5e9, jitter_scale=0.15e-6,
                outlier_prob=2e-2, outlier_scale=80e-6,
            ),
        },
        o_send=0.25e-6, o_recv=0.25e-6, nic_gap=0.35e-6,
    )
    algs: dict = {}

    def main(ctx, comm):
        alg = algs.setdefault(ctx.rank, quick_h2hca())
        g_clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)

        def op(c):
            yield from c.allreduce(1.0, size=8)

        window = WindowScheme(lambda c: g_clk, window=None, nreps=nreps,
                              window_factor=1.5)
        win_result = yield from window.run(comm, op)
        rt = RoundTimeScheme(lambda c: g_clk, max_time_slice=5.0,
                             max_nrep=nreps)
        rt_result = yield from rt.run(comm, op)
        return win_result.nvalid, rt_result.nvalid

    sim = Simulation(
        machine=JUPITER.machine(QUICK.num_nodes, QUICK.ranks_per_node),
        network=noisy,
        time_source=CLOCK_GETTIME.with_(skew_walk_sigma=4e-8), seed=0,
    )
    values = sim.run(main).values
    assert min(v[1] for v in values) > min(v[0] for v in values)
