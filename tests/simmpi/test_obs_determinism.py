"""Observability must be passive: a hook never perturbs the simulation.

The acceptance bar for the obs layer: a seeded run produces bit-identical
results with no sink, with a recording sink, and with metrics attached —
and event emission schedules no extra queue events.

The engine has one send path and one delivery path, shared by hooked and
hook-free runs, so this module is the contract that used to be a "keep
the twins in lockstep" comment: every hook the engine takes (the rows of
perfbench's hook table, plus fabric pricing), attached alone, must
reproduce the hook-free run exactly.
"""

import pytest

from repro.cluster.fabric import FlatFabric
from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.faults import FaultInjector, FaultSchedule
from repro.obs import SpanRecorder, TimeSeriesBank
from repro.obs.events import RecordingSink
from repro.obs.metrics import MetricsRegistry
from repro.prof import Profiler
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync import HCA3Sync

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)


def sync_body(ctx, comm):
    """Fig. 3-style workload: one flat HCA3 synchronization + readings."""
    alg = HCA3Sync(nfitpoints=6, fitpoint_spacing=1e-3)
    clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
    readings = []
    for _ in range(5):
        yield from ctx.elapse(0.01)
        readings.append(ctx.read_clock(clk))
    return (readings, ctx.now)


def run_once(sink=None, metrics=None, seed=7):
    sim, res = run_spmd_with(sink, metrics, seed)
    return res.values, sim.engine._seq, sim.engine._msg_seq


MACHINE = Machine(num_nodes=2, sockets_per_node=2,
                  cores_per_socket=1, ranks_per_node=2,
                  name="testbox")


def run_spmd_with(sink, metrics, seed):
    sim = Simulation(machine=MACHINE, network=infiniband_qdr(),
                     time_source=QUIET, seed=seed,
                     sink=sink, metrics=metrics)
    return sim, sim.run(sync_body)


def hooked_body(ctx, comm):
    """``sync_body`` plus a rendezvous ring and an idle wait.

    Between them the two exercise every hook site of the engine: eager
    and fused sends, mailbox and wake deliveries, NIC backlog, the
    rendezvous ack, blocked receives, and ``elapse``.
    """
    readings, _ = yield from sync_body(ctx, comm)
    n = ctx.nprocs
    for r in range(3):
        if ctx.rank % 2 == 0:
            yield from comm.ssend(dest=(ctx.rank + 1) % n, tag=r, size=256)
            yield from comm.recv(source=(ctx.rank - 1) % n, tag=r)
        else:
            yield from comm.recv(source=(ctx.rank - 1) % n, tag=r)
            yield from comm.ssend(dest=(ctx.rank + 1) % n, tag=r, size=256)
    yield from comm.barrier()
    return (readings, ctx.now)


def run_hooked(**hooks):
    sim = Simulation(machine=MACHINE, network=infiniband_qdr(),
                     time_source=QUIET, seed=7, **hooks)
    res = sim.run(hooked_body)
    engine = sim.engine
    return {
        "values": res.values,
        "final_times": [engine.proc_now(r) for r in range(MACHINE.num_ranks)],
        "stats": engine.stats(),
        "seqs": (engine._seq, engine._msg_seq),
    }


#: One hook at a time; the first seven are perfbench's hook table
#: (``perfbench/probes.py::_hook_configs``), the last is the sixth engine
#: hook, which the table does not time.
HOOKS = {
    "sink": lambda: {"sink": RecordingSink()},
    "metrics": lambda: {"metrics": MetricsRegistry()},
    "timeseries": lambda: {"timeseries": TimeSeriesBank()},
    "profiler": lambda: {"profiler": Profiler()},
    "sanitizer_strict": lambda: {"check": "strict"},
    "span_recorder": lambda: {"sink": SpanRecorder()},
    "injector_empty": lambda: {
        "injector": FaultInjector(
            FaultSchedule("empty"), node_of=MACHINE.node_of
        )
    },
    "fabric_zero_latency": lambda: {"fabric": FlatFabric()},
}


class TestObservabilityIsPassive:
    def test_no_sink_bit_identical_across_runs(self):
        assert run_once() == run_once()

    def test_sink_does_not_change_results(self):
        bare_values, bare_seq, bare_msgs = run_once()
        sink = RecordingSink()
        obs_values, obs_seq, obs_msgs = run_once(sink=sink)
        assert obs_values == bare_values
        # Event emission schedules no extra heap events and injects no
        # extra messages: the engine's internal counters line up exactly.
        assert obs_seq == bare_seq
        assert obs_msgs == bare_msgs
        assert len(sink) > 0

    def test_metrics_do_not_change_results(self):
        bare = run_once()
        registry = MetricsRegistry()
        observed = run_once(metrics=registry)
        assert observed == bare
        assert registry.merged_counter("engine.bytes.delivered") > 0

    def test_sink_and_metrics_together(self):
        bare = run_once()
        observed = run_once(sink=RecordingSink(),
                            metrics=MetricsRegistry())
        assert observed == bare


class TestEachHookAloneIsInvisible:
    @pytest.fixture(scope="class")
    def hook_free(self):
        return run_hooked()

    def test_workload_reaches_the_rendezvous_and_nic_paths(self, hook_free):
        stats = hook_free["stats"]
        assert stats["rendezvous_stalls"] == 3 * MACHINE.num_ranks
        assert stats["messages_unreceived"] == 0
        metrics = MetricsRegistry()
        run_hooked(metrics=metrics)
        assert metrics.merged_histogram("engine.nic.backlog").count > 0

    @pytest.mark.parametrize("name", sorted(HOOKS))
    def test_hook_reproduces_the_hook_free_run(self, hook_free, name):
        hooks = HOOKS[name]()
        assert run_hooked(**hooks) == hook_free
        # The hook was really attached and really saw the run.
        if name in ("sink", "span_recorder"):
            assert len(hooks["sink"]) > 0
        elif name == "metrics":
            assert hooks["metrics"].merged_counter(
                "engine.messages.sent"
            ) == hook_free["stats"]["messages_sent"]
        elif name == "profiler":
            sends = sum(
                zone.count for path, zone in hooks["profiler"].walk()
                if path[-1] == "engine.send"
            )
            assert sends == hook_free["stats"]["messages_sent"]
            assert hooks["profiler"].depth == 0
