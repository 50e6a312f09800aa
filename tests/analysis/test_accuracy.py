"""Tests for CHECK_CLOCK_ACCURACY (Algorithm 6)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.accuracy import (
    _sample_clock_health,
    check_clock_accuracy,
    ground_truth_accuracy,
    max_abs_offset,
)
from repro.cluster.machines import JUPITER
from repro.cluster.netmodels import infiniband_qdr
from repro.context import run_context
from repro.experiments.common import QUICK, run_sync_accuracy_campaign
from repro.obs.timeseries import TimeSeriesBank
from repro.faults.scenarios import make_scenario
from repro.scenarios.runner import run_scenario_cell
from repro.simtime.drift import ConstantDrift
from repro.simtime.hardware import HardwareClock
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync import HCA3Sync, SKaMPIOffset
from tests.conftest import run_spmd

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)


def campaign(wait_times=(0.0, 1.0), sample_fraction=1.0, nodes=4, seed=0):
    def main(ctx, comm):
        alg = HCA3Sync(offset_alg=SKaMPIOffset(8), nfitpoints=10,
                       fitpoint_spacing=1e-3)
        g_clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
        out = yield from check_clock_accuracy(
            comm, g_clk, SKaMPIOffset(8), wait_times=wait_times,
            sample_fraction=sample_fraction,
        )
        return (g_clk, out, ctx.now)

    sim, res = run_spmd(main, num_nodes=nodes, ranks_per_node=1,
                        network=infiniband_qdr(), time_source=QUIET,
                        seed=seed)
    return sim, res


class TestCheckClockAccuracy:
    def test_root_reports_all_clients(self):
        _, res = campaign()
        _, offsets, _ = res.values[0]
        assert set(offsets) == {0.0, 1.0}
        assert set(offsets[0.0]) == {1, 2, 3}

    def test_clients_return_none(self):
        _, res = campaign()
        assert all(v[1] is None for v in res.values[1:])

    def test_measured_matches_ground_truth(self):
        sim, res = campaign(wait_times=(0.0,), seed=3)
        clocks = [v[0] for v in res.values]
        _, offsets, t_end = res.values[0]
        measured = max_abs_offset(offsets[0.0])
        truth = ground_truth_accuracy(clocks, t_end)
        # Both tiny; the measurement agrees within the ping-pong noise.
        assert measured == pytest.approx(truth, abs=2e-6)

    def test_offsets_grow_with_wait(self):
        spec = CLOCK_GETTIME.with_(skew_walk_sigma=3e-7)

        def main(ctx, comm):
            alg = HCA3Sync(offset_alg=SKaMPIOffset(8), nfitpoints=10,
                           fitpoint_spacing=1e-3)
            g_clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
            out = yield from check_clock_accuracy(
                comm, g_clk, SKaMPIOffset(8), wait_times=(0.0, 20.0)
            )
            return out

        _, res = run_spmd(main, num_nodes=4, ranks_per_node=1,
                          network=infiniband_qdr(), time_source=spec,
                          seed=5)
        offsets = res.values[0]
        assert max_abs_offset(offsets[20.0]) > max_abs_offset(offsets[0.0])

    def test_sampling_reduces_clients(self):
        _, res = campaign(sample_fraction=0.4, nodes=6, seed=7)
        _, offsets, _ = res.values[0]
        assert len(offsets[0.0]) == 2  # 40% of 5 clients


class TestSampleClockHealth:
    """The one telemetry sampler, on synthetic linear clocks."""

    CLOCKS = [
        HardwareClock(offset=0.0, drift=ConstantDrift(0.0)),
        HardwareClock(offset=2e-6, drift=ConstantDrift(1e-6)),
        HardwareClock(offset=-5e-6, drift=ConstantDrift(-3e-6)),
    ]
    DURATIONS = [0.25, 0.5, 0.375]

    def sampled(self, wait_times, npoints):
        bank = TimeSeriesBank()
        _sample_clock_health(
            bank, self.DURATIONS, self.CLOCKS, 0.5,
            max(wait_times, default=0.0), npoints,
        )
        return bank

    def test_duration_once_per_rank(self):
        bank = self.sampled((0.0, 4.0), 7)
        assert bank.ranks_of("sync.duration") == [0, 1, 2]
        for rank, d in enumerate(self.DURATIONS):
            assert bank.get("sync.duration", rank).points == [(d, d)]

    @pytest.mark.parametrize("wait_times, end", [
        ((0.0, 4.0), 4.5),
        ((0.0,), 1.5),   # zero span: a one-second window
        ((), 1.5),
    ])
    def test_error_grid_and_values(self, wait_times, end):
        n = 7
        bank = self.sampled(wait_times, n)
        assert bank.ranks_of("clock.error") == [1, 2]   # not the reference
        ts = np.asarray(
            [0.5 + (end - 0.5) * i / (n - 1) for i in range(n)]
        )
        assert ts[0] == 0.5 and ts[-1] == end
        ref = self.CLOCKS[0].read_many(ts)
        for rank in (1, 2):
            series = bank.get("clock.error", rank)
            assert series.count == n
            assert series.times() == list(ts)
            expected = self.CLOCKS[rank].read_many(ts) - ref
            assert series.values() == list(expected)

    @staticmethod
    def error_counts(bank):
        return {
            series.count
            for (name, rank), series in bank.items()
            if name.endswith("clock.error")
        }

    def test_fig3_job_deposits_25_points_per_rank(self):
        tiny = replace(QUICK, num_nodes=2, ranks_per_node=2, nfitpoints=4,
                       nexchanges=4, nmpiruns=1)
        with run_context(timeseries=TimeSeriesBank()) as ctx:
            run_sync_accuracy_campaign(
                JUPITER, ["hca/4/skampi_offset/4"], scale=tiny, seed=0
            )
        assert self.error_counts(ctx.timeseries) == {25}

    def test_scenario_round_deposits_15_points_per_rank(self):
        with run_context(timeseries=TimeSeriesBank()) as ctx:
            run_scenario_cell(
                make_scenario("delay_attack"), "hca/4/skampi_offset/4",
                num_nodes=4, ranks_per_node=1, nexchanges=4, rounds=1,
            )
        assert self.error_counts(ctx.timeseries) == {15}


class TestGroundTruth:
    def test_identical_clocks_zero(self):
        clk = HardwareClock(offset=3.0)
        assert ground_truth_accuracy([clk, clk, clk], 1.0) == 0.0

    def test_max_over_ranks(self):
        clocks = [HardwareClock(offset=0.0), HardwareClock(offset=1.0),
                  HardwareClock(offset=-2.0)]
        assert ground_truth_accuracy(clocks, 0.5) == pytest.approx(2.0)
