"""End-to-end kernel equivalence: the event queue cannot change a result.

``test_eventq.py`` pins the ``(time, seq)`` pop-order contract on the
queue objects in isolation; these tests pin it through whole
simulations.  The engine builds exactly one queue — the binary heap —
and has no option to pick another, so the reference is swapped in from
here by overriding ``Engine._make_queue``: the calendar queue (the
heap's lockstep partner in the property tests) at the automatic width
it had when the engine ran on it, and at widths spanning nine orders of
magnitude.  For every workload family the repo exercises — the perf
ring, a Fig. 3-style sync round, and a fault-recovery run — all of them
must yield bit-identical results, engine stats, observability event
streams and metrics.
"""

from __future__ import annotations

import pytest

from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.faults.evaluate import run_recovery
from repro.faults.scenarios import make_scenario
from repro.obs.events import RecordingSink
from repro.obs.metrics import MetricsRegistry
from repro.simmpi.engine import Engine
from repro.simmpi.eventq import CalendarQueue, HeapQueue, auto_bucket_width
from repro.simmpi.network import Level
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME
from tests.conftest import expected_delay
from repro.sync import HCA3Sync

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)

#: Message sizes the ring cycles through (bytes): the small sizes the
#: sync algorithms use plus a couple of bandwidth-bound ones.
RING_SIZES = (8, 64, 8, 1024, 8, 65536)

#: Queue configurations that must all be observationally identical.
#: ``("heap", None)`` is the engine as shipped, ``("calendar", None)`` the
#: calendar at its automatic width.  The widths straddle the auto width
#: from both sides: 1e-9 forces heavy bucket hopping, 1.0 degenerates to
#: one bucket (an insort list).
VARIANTS = [
    ("heap", None),
    ("calendar", None),
    ("calendar", 1e-9),
    ("calendar", 1e-6),
    ("calendar", 1.0),
]


def auto_width(engine):
    """The calendar width from one message's service window: CPU
    overheads plus the mean coarsest-level wire time of a minimal
    payload.  A p-rank job keeps ~p events inside such a window, so
    dividing by p keeps per-bucket occupancy roughly constant."""
    network = engine.network
    service = (
        network.o_send
        + network.o_recv
        + expected_delay(network, Level.REMOTE, 8)
    )
    return auto_bucket_width(service, engine.num_ranks)


@pytest.fixture
def use_queue(monkeypatch):
    """Swap the queue every ``Engine`` builds (test-side fake)."""

    def swap(kind, width=None):
        def make(engine):
            if kind == "heap":
                return HeapQueue()
            return CalendarQueue(width or auto_width(engine))

        monkeypatch.setattr(Engine, "_make_queue", make)

    return swap


def _ring_main(nrounds: int):
    """SPMD body: nearest-neighbour ring exchange + periodic barriers."""

    def main(ctx, comm):
        n = ctx.nprocs
        right = (ctx.rank + 1) % n
        left = (ctx.rank - 1) % n
        for r in range(nrounds):
            size = RING_SIZES[r % len(RING_SIZES)]
            yield from comm.sendrecv(
                dest=right, send_tag=r, size=size, source=left
            )
            if r % 64 == 63:
                yield from comm.barrier()
        total = yield from comm.allreduce(ctx.rank)
        return total

    return main


def _sync_body(ctx, comm):
    """Fig. 3-style workload: one flat HCA3 sync + clock readings."""
    alg = HCA3Sync(nfitpoints=6, fitpoint_spacing=1e-3)
    clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
    readings = []
    for _ in range(5):
        yield from ctx.elapse(0.01)
        readings.append(ctx.read_clock(clk))
    return (readings, ctx.now)


def _run_ring(seed=3):
    sink = RecordingSink()
    metrics = MetricsRegistry()
    sim = Simulation(
        machine=Machine(4, 1, 4, 4),
        network=infiniband_qdr(),
        seed=seed,
        sink=sink,
        metrics=metrics,
    )
    res = sim.run(_ring_main(96))
    return {
        "values": res.values,
        "stats": res.engine_stats,
        "events": [repr(e) for e in sink.events],
        "counters": {
            name: metrics.merged_counter(name)
            for name in metrics.names()
        },
    }


def _run_fig3(seed=7):
    machine = Machine(num_nodes=2, sockets_per_node=2,
                      cores_per_socket=1, ranks_per_node=2,
                      name="testbox")
    sim = Simulation(machine=machine, network=infiniband_qdr(),
                     time_source=QUIET, seed=seed)
    res = sim.run(_sync_body)
    return {"values": res.values, "stats": res.engine_stats}


def _run_fault(seed=0):
    report = run_recovery(
        make_scenario("ntp_step"),
        resync_age=8.0,
        horizon=50.0,
        num_nodes=4,
        ranks_per_node=2,
        seed=seed,
    )
    return {
        "samples": report.samples,
        "resync_rounds": report.resync_rounds,
        "stats": report.engine_stats,
    }


class TestRingEquivalence:
    @pytest.fixture
    def reference(self, use_queue):
        use_queue("heap")
        return _run_ring()

    @pytest.mark.parametrize(
        "event_queue,bucket_width", VARIANTS[1:],
        ids=lambda v: str(v),
    )
    def test_matches_heap(self, reference, use_queue, event_queue,
                          bucket_width):
        use_queue(event_queue, bucket_width)
        assert _run_ring() == reference

    def test_stats_counted_equivalently(self, reference, use_queue):
        """Bucket-queue runs count gate deferrals / depth like heap runs."""
        use_queue("calendar")
        stats = _run_ring()["stats"]
        for key in ("messages_sent", "events_processed",
                    "gate_deferrals", "max_queue_depth"):
            assert stats[key] == reference["stats"][key]


class TestFig3Equivalence:
    def test_calendar_matches_heap(self, use_queue):
        shipped = _run_fig3()
        use_queue("calendar")
        assert shipped == _run_fig3()

    @pytest.mark.parametrize("width", [1e-9, 1.0])
    def test_extreme_widths_match(self, use_queue, width):
        use_queue("heap")
        reference = _run_fig3()
        use_queue("calendar", width)
        assert _run_fig3() == reference


class TestFaultRecoveryEquivalence:
    def test_calendar_matches_heap(self, use_queue):
        shipped = _run_fault()
        use_queue("calendar")
        assert shipped == _run_fault()


class TestTheFakeTakesEffect:
    def test_engine_runs_on_the_swapped_queue(self, use_queue):
        """Guards the suite itself: the override must reach the engine."""
        use_queue("heap")
        sim = Simulation(machine=Machine(2, 1, 2, 2),
                         network=infiniband_qdr(), seed=0)
        sim.run(_ring_main(4))
        assert type(sim.engine._queue) is HeapQueue
        use_queue("calendar")
        sim = Simulation(machine=Machine(2, 1, 2, 2),
                         network=infiniband_qdr(), seed=0)
        sim.run(_ring_main(4))
        assert type(sim.engine._queue) is CalendarQueue
