"""Exactness tests: with noise-free clocks and a symmetric network, every
synchronization algorithm must recover the clock relationship essentially
exactly (the only residual error is timestamping asymmetry and float
round-off).  This isolates algorithmic correctness from statistics.
"""

import pytest

from repro.analysis.accuracy import ground_truth_accuracy
from repro.cluster.netmodels import ideal_network
from repro.sync import (
    HCA2Sync,
    HCA3Sync,
    HCASync,
    JKSync,
    SKaMPIOffset,
)
from repro.sync.clocks import flatten_clock
from tests.conftest import PERFECT_TIME, run_spmd

#: Clocks with big constant offsets and ppm-scale constant skews — a
#: perfectly linear world where the model class is exactly right.
LINEAR_WORLD = PERFECT_TIME.with_(
    offset_scale=100.0,
    offset_is_uniform=True,
    skew_scale=20e-6,
)

ALGOS = [JKSync, HCASync, HCA2Sync, HCA3Sync]


def sync_all(cls, nprocs, seed=0, spacing=2e-3):
    def main(ctx, comm):
        alg = cls(offset_alg=SKaMPIOffset(4), nfitpoints=10,
                  fitpoint_spacing=spacing)
        t0 = ctx.now
        clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
        return clk, ctx.now - t0

    _, res = run_spmd(main, num_nodes=nprocs, ranks_per_node=1,
                      network=ideal_network(latency=1e-6),
                      time_source=LINEAR_WORLD, seed=seed)
    clocks = [v[0] for v in res.values]
    duration = max(v[1] for v in res.values)
    return clocks, duration


class TestLinearWorldExactness:
    @pytest.mark.parametrize("cls", ALGOS)
    @pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
    def test_recovers_relationship_exactly(self, cls, nprocs):
        clocks, duration = sync_all(cls, nprocs)
        # Evaluate far in the future: any slope error would be amplified
        # 100x; exact models stay at the ns level.
        err = ground_truth_accuracy(clocks, duration + 100.0)
        assert err < 50e-9, f"{cls.__name__}: {err * 1e9:.1f} ns"

    @pytest.mark.parametrize("cls", ALGOS)
    def test_single_model_layer(self, cls):
        clocks, _ = sync_all(cls, 4)
        assert all(len(flatten_clock(c)) == 1 for c in clocks)

    def test_offsets_learned_despite_huge_initial_offset(self):
        clocks, duration = sync_all(HCA3Sync, 4, seed=2)
        # The raw clocks disagree by up to 100 s; the global clocks agree.
        raw_spread = ground_truth_accuracy(
            [c.base for c in clocks], duration
        )
        synced = ground_truth_accuracy(clocks, duration)
        assert raw_spread > 1.0
        assert synced < 1e-6
