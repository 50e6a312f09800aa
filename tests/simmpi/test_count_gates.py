"""Count gates: how the engine steps a sync, pinned as exact counts.

Wall time on a shared host says little; these counts say which path a
run took.  Flat HCA3 at 256x4 ranks: a learn round's fit points are one
command per side, the queue holds only the p starts and the gate's
deferrals, a woken rank runs inside the activation that woke it, and a
node-local send to a receiver waiting for it is not gated.  JK at 64x4:
every SKaMPI round trip runs inside the engine's exchange loop, one loop
entry per learn round.  H2HCA at 256x4: communicator creation keeps the
message count at O(p log p).
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.netmodels import infiniband_qdr
from repro.cluster.topology import Machine
from repro.prof import Profiler
from repro.simmpi.simulation import Simulation
from repro.sync.registry import algorithm_from_label


def _sync(label: str, nodes: int, rpn: int, **hooks):
    """An unrun ``Simulation`` of one sync and its rank program."""
    algorithm = algorithm_from_label(label, fitpoint_spacing=1e-3)

    def main(ctx, comm):
        yield from algorithm.sync_clocks(comm, ctx.hardware_clock)

    sim = Simulation(
        machine=Machine(nodes, 1, rpn, rpn), network=infiniband_qdr(),
        seed=0, **hooks,
    )
    return sim, main


class TestFlatHCA3ResumeCounts:
    """Flat HCA3 at 256x4: 72 messages per tree edge.

    Each of the p - 1 pairs resumes its two rank programs twice, once
    after the learn round's command and once after the intercept's, on
    top of one start per rank: p + 4·(p − 1) = 5,116 resumes.  One
    command per offset measurement again gives 26,599, and spelling the
    ping-pongs out in the rank program again 118,669.  The queue holds only
    the p starts and the gate's deferrals, so a wake routed back through
    it breaks ``events == p + deferrals``.  A send defers at most once:
    255 of the tree's 1,023 edges cross nodes and carry 72 messages
    each, and a node-local send defers only when its receiver is not
    waiting for it yet (767 times at seed 0), with p as the slack for
    those: deferrals <= 72 * (nodes - 1) + p = 19,384, against 18,996 at
    seed 0; gating a node-local send to a waiting receiver again gives
    73,458.  A woken rank runs inside the activation that woke it, so
    ``_run_proc`` is entered once per queue event; running the ready
    list from the event loop again gives 92,654 activations against
    20,020 events.
    """

    NODES, RPN = 256, 4

    @pytest.fixture(scope="class")
    def counts(self):
        prof = Profiler()
        sim, main = _sync(
            "hca3/recompute_intercept/8/skampi_offset/4",
            self.NODES, self.RPN, profiler=prof,
        )
        engine = sim.engine
        run_proc = engine._run_proc
        activations = 0

        def counting_run_proc(proc):
            nonlocal activations
            activations += 1
            run_proc(proc)

        engine._run_proc = counting_run_proc
        stats = sim.run(main).engine_stats
        resumes = sum(
            zone.count for path, zone in prof.walk()
            if path[-1] == "proc.advance"
        )
        return stats, resumes, activations

    def test_ping_pong_traffic(self, counts):
        stats, _, _ = counts
        p = self.NODES * self.RPN
        assert stats["messages_sent"] == 72 * (p - 1)

    def test_ping_pongs_stay_out_of_the_rank_program(self, counts):
        _, resumes, _ = counts
        p = self.NODES * self.RPN
        assert resumes == p + 4 * (p - 1) == 5_116

    def test_a_wake_is_not_a_queue_event(self, counts):
        stats, _, _ = counts
        p = self.NODES * self.RPN
        assert stats["events_processed"] == p + stats["gate_deferrals"]

    def test_one_activation_per_queue_event(self, counts):
        stats, _, activations = counts
        assert activations == stats["events_processed"]

    def test_a_node_local_send_to_a_waiting_receiver_is_not_gated(
        self, counts
    ):
        stats, _, _ = counts
        bound = 72 * (self.NODES - 1) + self.NODES * self.RPN
        assert bound == 19_384
        assert stats["gate_deferrals"] <= bound


def test_jk_round_trips_run_in_the_exchange_loop():
    """JK at 64x4: 255 clients x 8 fit points x 4 SKaMPI ping-pongs =
    8,160 round trips, every one of them inside ``_play_exchange``
    (16,320 of the run's 16,575 messages; the other 255 are the root's
    go-signals).  Stepping exchanges leg by leg again sends none
    there."""
    sim, main = _sync("jk/8/skampi_offset/4", 64, 4)
    engine = sim.engine
    play = engine._play_exchange
    inside = 0

    def counting_play(ini, res):
        nonlocal inside
        before = engine.messages_sent
        try:
            return play(ini, res)
        finally:
            inside += engine.messages_sent - before

    engine._play_exchange = counting_play
    stats = sim.run(main).engine_stats
    assert stats["messages_sent"] == 16_575
    assert inside == 2 * 255 * 8 * 4


def test_h2hca_communicator_creation_stays_logarithmic():
    """H2HCA at 256x4: its two ``comm.split`` calls and the syncs behind
    them send 38,336 messages against a bound of 6·p·⌈log₂ p⌉ = 61,440.
    A linear-step split sends 2.1 M here, so the gate is a count, not a
    stopwatch; the 20 s ceiling (the run takes about 1 s) only catches
    quadratic host work per split."""
    nodes, rpn = 256, 4
    p = nodes * rpn
    start = time.perf_counter()
    sim, main = _sync(
        "Top/hca3/8/skampi_offset/4/Bottom/ClockPropagation", nodes, rpn
    )
    messages = sim.run(main).engine_stats["messages_sent"]
    wall = time.perf_counter() - start
    bound = 6 * p * (p - 1).bit_length()
    assert bound == 61_440
    assert messages <= bound, "communicator creation is not logarithmic"
    assert wall <= 20.0, f"H2HCA sync at p=1024 took {wall:.1f} s"
