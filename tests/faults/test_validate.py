"""FaultSchedule.validate: one test per rejection path."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.evaluate import run_recovery
from repro.faults.model import (
    ClockStepFault,
    LinkFault,
    NicStormFault,
    StragglerFault,
)
from repro.faults.schedule import FaultSchedule
from repro.faults.scenarios import ntp_step, rank_churn


def schedule(*faults):
    return FaultSchedule(name="s", faults=list(faults))


class TestValidate:
    def test_valid_schedule_chains(self):
        s = schedule(ClockStepFault(start=1.0, step=1e-3, node=0))
        assert s.validate(num_ranks=4, num_nodes=2, horizon=10.0) is s

    def test_rank_out_of_range_rejected(self):
        s = schedule(StragglerFault(start=1.0, length=1.0, rank=7, slowdown=2.0))
        with pytest.raises(ConfigurationError, match="rank 7"):
            s.validate(num_ranks=4)

    def test_negative_rank_rejected(self):
        s = schedule(StragglerFault(start=1.0, length=1.0, rank=-1, slowdown=2.0))
        with pytest.raises(ConfigurationError, match="rank -1"):
            s.validate(num_ranks=4)

    def test_node_out_of_range_rejected(self):
        s = schedule(NicStormFault(start=1.0, length=1.0, node=5))
        with pytest.raises(ConfigurationError, match="node 5"):
            s.validate(num_nodes=2)

    def test_start_beyond_horizon_rejected(self):
        s = schedule(LinkFault(start=50.0, length=1.0, latency_factor=2.0))
        with pytest.raises(ConfigurationError, match="never fire"):
            s.validate(horizon=30.0)

    def test_start_at_horizon_rejected(self):
        s = schedule(LinkFault(start=30.0, length=1.0, latency_factor=2.0))
        with pytest.raises(ConfigurationError, match="never fire"):
            s.validate(horizon=30.0)

    def test_none_bounds_skip_checks(self):
        """Unbounded validation accepts anything (all checks opt-in)."""
        s = schedule(
            StragglerFault(start=1e9, length=1.0, rank=999, node=999,
                           slowdown=2.0)
        )
        assert s.validate() is s
        assert s.validate(num_ranks=None, num_nodes=None, horizon=None) is s

    def test_untargeted_faults_ignore_shape(self):
        """Cluster-wide faults (rank/node None) pass any job shape."""
        s = schedule(
            LinkFault(start=1.0, length=1.0, latency_factor=2.0),
            ClockStepFault(start=2.0, step=1e-3, node=None),
        )
        assert s.validate(num_ranks=1, num_nodes=1, horizon=10.0) is s

    def test_link_src_out_of_range_rejected(self):
        s = schedule(
            LinkFault(start=1.0, length=1.0, latency_factor=2.0,
                      src=9, dst=0, name="directed")
        )
        with pytest.raises(ConfigurationError, match="src to rank 9"):
            s.validate(num_ranks=4)

    def test_link_dst_out_of_range_rejected(self):
        s = schedule(
            LinkFault(start=1.0, length=1.0, latency_factor=2.0,
                      src=0, dst=4, name="directed")
        )
        with pytest.raises(ConfigurationError, match="dst to rank 4"):
            s.validate(num_ranks=4)

    def test_link_endpoints_in_range_accepted(self):
        s = schedule(
            LinkFault(start=1.0, length=1.0, latency_factor=2.0,
                      src=3, dst=0)
        )
        assert s.validate(num_ranks=4, horizon=10.0) is s

    def test_broadcast_link_ignores_rank_count(self):
        """An undirected link fault is valid on any shape."""
        s = schedule(LinkFault(start=1.0, length=1.0, latency_factor=2.0))
        assert s.validate(num_ranks=1) is s

    def test_first_offender_named(self):
        s = schedule(
            ClockStepFault(start=1.0, step=1e-3, node=0, name="fine"),
            NicStormFault(start=2.0, length=1.0, node=9, name="broken"),
        )
        with pytest.raises(ConfigurationError, match="broken"):
            s.validate(num_nodes=2)


class TestValidationWiring:
    def test_simulation_rejects_bad_node(self):
        from repro.cluster.netmodels import ideal_network
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation

        machine = Machine(num_nodes=2, sockets_per_node=1,
                          cores_per_socket=1, ranks_per_node=1,
                          name="valbox")
        with pytest.raises(ConfigurationError, match="node 7"):
            Simulation(
                machine=machine, network=ideal_network(), seed=0,
                faults=schedule(
                    ClockStepFault(start=1.0, step=1e-3, node=7)
                ),
            )

    def test_run_recovery_rejects_beyond_horizon(self):
        """The evaluation validates against its own (small) horizon."""
        with pytest.raises(ConfigurationError, match="never fire"):
            run_recovery(
                ntp_step(at=500.0), resync_age=None, horizon=20.0,
                num_nodes=2, ranks_per_node=1,
            )

    def test_run_recovery_rejects_churn(self):
        """A recovery run is one mpirun; churn has nothing to act on."""
        with pytest.raises(
            ConfigurationError, match="churn acts between campaign rounds"
        ):
            run_recovery(
                rank_churn(), resync_age=None, horizon=15.0,
                num_nodes=4, ranks_per_node=1,
            )

    def test_run_recovery_accepts_valid_scenario(self):
        report = run_recovery(
            ntp_step(at=5.0), resync_age=None, horizon=15.0,
            num_nodes=2, ranks_per_node=1,
        )
        assert report.phases
