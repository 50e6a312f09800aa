"""Engine/communicator event emission and sink plumbing."""

from dataclasses import fields

import pytest

from repro.cluster.netmodels import infiniband_qdr
from repro.obs.events import (
    CollectiveEnter,
    CollectiveExit,
    CountingSink,
    EventSink,
    MsgDeliver,
    MsgSend,
    NicQueue,
    ProcBlock,
    ProcWake,
    RecordingSink,
)
from repro.context import current_context, run_context
from repro.simmpi.network import Level
from tests.conftest import run_spmd


def ring_body(ctx, comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.send(right, 7, comm.rank, 64)
    msg = yield from comm.recv(left, 7)
    return msg.payload


class TestEngineEmission:
    def test_send_deliver_pairing(self):
        sink = RecordingSink()
        with run_context(sink=sink):
            _, res = run_spmd(ring_body)
        sends = sink.of_type(MsgSend)
        delivers = sink.of_type(MsgDeliver)
        assert len(sends) == 4
        assert len(delivers) == 4
        assert {s.seq for s in sends} == {d.seq for d in delivers}
        for d in delivers:
            assert d.latency >= 0.0
        assert res.values == [3, 0, 1, 2]

    def test_block_wake_on_recv(self):
        sink = RecordingSink()

        def body(ctx, comm):
            if comm.rank == 0:
                yield from ctx.elapse(1.0)  # receiver arrives first
                yield from comm.send(1, 1, None, 8)
            else:
                yield from comm.recv(0, 1)

        with run_context(sink=sink):
            run_spmd(body, num_nodes=1, ranks_per_node=2)
        blocks = [e for e in sink.of_type(ProcBlock) if e.rank == 1]
        assert blocks and blocks[0].reason == "recv"
        assert any(e.rank == 1 for e in sink.of_type(ProcWake))

    def test_collective_enter_exit_balanced(self):
        sink = RecordingSink()

        def body(ctx, comm):
            yield from comm.barrier()
            total = yield from comm.allreduce(1)
            return total

        with run_context(sink=sink):
            _, res = run_spmd(body)
        enters = sink.of_type(CollectiveEnter)
        exits = sink.of_type(CollectiveExit)
        names = {e.name for e in enters}
        assert names == {"MPI_Barrier", "MPI_Allreduce"}
        # Every rank enters and exits each collective exactly once.
        for name in names:
            ranks_in = sorted(e.rank for e in enters if e.name == name)
            ranks_out = sorted(e.rank for e in exits if e.name == name)
            assert ranks_in == ranks_out == [0, 1, 2, 3]
        assert res.values == [4, 4, 4, 4]

    def test_emission_order_is_time_sorted_per_rank(self):
        sink = RecordingSink()
        with run_context(sink=sink):
            run_spmd(ring_body, network=infiniband_qdr())
        by_rank = {}
        for e in sink.events:
            by_rank.setdefault(e.rank, []).append(e.time)
        for times in by_rank.values():
            assert times == sorted(times)


class TestSinks:
    def test_counting_sink(self):
        sink = CountingSink()
        with run_context(sink=sink):
            run_spmd(ring_body)
        assert sink.counts["MsgSend"] == 4
        assert sink.counts["MsgDeliver"] == 4
        assert sink.total == sum(sink.counts.values())
        sink.clear()
        assert sink.total == 0

    def test_recording_sink_is_event_sink(self):
        assert isinstance(RecordingSink(), EventSink)
        assert isinstance(CountingSink(), EventSink)

    def test_default_sink_restored(self):
        assert current_context().sink is None
        sink = RecordingSink()
        with run_context(sink=sink) as ctx:
            assert ctx.sink is sink
            assert current_context() is ctx
        assert current_context().sink is None

    def test_explicit_sink_wins_over_default(self):
        explicit = RecordingSink()
        ambient = RecordingSink()

        def body(ctx, comm):
            yield from comm.barrier()

        from repro.cluster.netmodels import ideal_network
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation

        machine = Machine(num_nodes=2, sockets_per_node=1,
                          cores_per_socket=1, ranks_per_node=1,
                          name="t")
        with run_context(sink=ambient):
            sim = Simulation(machine=machine, network=ideal_network(),
                             sink=explicit)
            sim.run(body)
        assert len(explicit) > 0
        assert len(ambient) == 0


class TestPositionalContract:
    """The engine builds its per-message records positionally, so field
    order is an API: these pin it, and check a real run against it."""

    #: The argument order of the engine's positional calls.
    ORDER = {
        MsgSend: ["time", "rank", "dest", "tag", "size", "seq", "level",
                  "synchronous"],
        MsgDeliver: ["time", "rank", "source", "tag", "size", "seq",
                     "latency", "arrival", "waited"],
        ProcBlock: ["time", "rank", "reason", "source", "tag"],
        ProcWake: ["time", "rank", "cause", "seq"],
        NicQueue: ["time", "rank", "node", "backlog", "inject_time"],
    }

    @pytest.mark.parametrize("cls", list(ORDER), ids=lambda c: c.__name__)
    def test_field_order(self, cls):
        assert [f.name for f in fields(cls)] == self.ORDER[cls]

    @pytest.fixture(scope="class")
    def flat_hca3_events(self):
        """Every record of one flat HCA3 sync at 16x4, seed 0."""
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation
        from repro.sync.registry import algorithm_from_label

        algorithm = algorithm_from_label(
            "hca3/recompute_intercept/8/skampi_offset/4",
            fitpoint_spacing=1e-3,
        )
        sink = RecordingSink()

        def main(ctx, comm):
            yield from algorithm.sync_clocks(comm, ctx.hardware_clock)

        Simulation(Machine(16, 1, 4, 4), infiniband_qdr(), seed=0,
                   sink=sink).run(main)
        return sink

    def test_deliveries_match_sends(self, flat_hca3_events):
        sends = {e.seq: e for e in flat_hca3_events.of_type(MsgSend)}
        delivers = flat_hca3_events.of_type(MsgDeliver)
        assert delivers and len(delivers) == len(sends)
        for d in delivers:
            s = sends[d.seq]
            assert (d.source, d.rank, d.tag, d.size) == (
                s.rank, s.dest, s.tag, s.size
            )

    def test_send_levels_are_level_names(self, flat_hca3_events):
        levels = {e.level for e in flat_hca3_events.of_type(MsgSend)}
        assert levels and levels <= {level.name for level in Level}
