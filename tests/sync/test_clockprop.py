"""Unit tests for ClockPropSync (Algorithm 3)."""

import pytest

from repro.analysis.accuracy import ground_truth_accuracy
from repro.cluster.netmodels import ideal_network
from repro.errors import SyncError
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync.clockprop import ClockPropagationSync
from repro.sync.clocks import GlobalClockLM, dummy_global_clock, flatten_clock
from repro.sync.linear_model import LinearDriftModel
from tests.conftest import run_spmd


def clone_main(model=LinearDriftModel(1e-5, 0.25)):
    def main(ctx, comm):
        alg = ClockPropagationSync()
        if comm.rank == 0:
            clk = GlobalClockLM(ctx.hardware_clock, model)
        else:
            clk = dummy_global_clock(ctx.hardware_clock)
        out = yield from alg.sync_clocks(comm, clk)
        return out

    return main


class TestClone:
    def test_all_ranks_get_identical_readings_shared_source(self):
        _, res = run_spmd(clone_main(), num_nodes=1, ranks_per_node=4,
                          network=ideal_network(),
                          time_source=CLOCK_GETTIME, seed=1)
        clocks = res.values
        err = ground_truth_accuracy(clocks, 5.0)
        assert err < 1e-12

    def test_identity_model_propagates(self):
        _, res = run_spmd(clone_main(LinearDriftModel.ZERO), num_nodes=1,
                          ranks_per_node=3, network=ideal_network(),
                          time_source=CLOCK_GETTIME, seed=2)
        clocks = res.values
        base = clocks[0]
        for c in clocks[1:]:
            assert c.read(3.0) == base.read(3.0)

    def test_nested_stack_survives_clone(self):
        def main(ctx, comm):
            alg = ClockPropagationSync()
            if comm.rank == 0:
                inner = GlobalClockLM(ctx.hardware_clock,
                                      LinearDriftModel(2e-6, 1.0))
                clk = GlobalClockLM(inner, LinearDriftModel(-1e-6, 0.5))
            else:
                clk = dummy_global_clock(ctx.hardware_clock)
            out = yield from alg.sync_clocks(comm, clk)
            return (out, len(flatten_clock(out)))

        _, res = run_spmd(main, num_nodes=1, ranks_per_node=3,
                          network=ideal_network(),
                          time_source=CLOCK_GETTIME, seed=3)
        depths = [d for _, d in res.values]
        assert depths == [2, 2, 2]
        clocks = [c for c, _ in res.values]
        for c in clocks[1:]:
            assert c.read(2.0) == pytest.approx(clocks[0].read(2.0))

    def test_incorrect_when_sources_differ(self):
        """Violating the shared-source precondition gives a wrong clock."""
        _, res = run_spmd(clone_main(), num_nodes=2, ranks_per_node=1,
                          network=ideal_network(),
                          time_source=CLOCK_GETTIME, seed=4,
                          clocks_per="node")
        clocks = res.values
        # Nodes have different hardware clocks; cloning rank 0's model onto
        # rank 1's clock does NOT produce agreement.
        err = ground_truth_accuracy(clocks, 5.0)
        assert err > 1e-3

    def test_p_ref_out_of_range(self):
        def main(ctx, comm):
            alg = ClockPropagationSync(p_ref=10)
            try:
                yield from alg.sync_clocks(
                    comm, dummy_global_clock(ctx.hardware_clock)
                )
            except SyncError:
                return "raised"
            return "no"

        _, res = run_spmd(main, num_nodes=1, ranks_per_node=2,
                          network=ideal_network())
        assert all(v == "raised" for v in res.values)

    def test_label(self):
        assert ClockPropagationSync().label() == "clockpropagation"
