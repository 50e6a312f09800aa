"""Unit tests for the discrete-event engine."""

import pytest

from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.cluster.topology import Machine
from repro.errors import DeadlockError, MatchingError, SimulationError
from repro.obs.events import (
    MsgSend, PhaseBegin, PhaseEnd, ProcBlock, ProcWake, RecordingSink,
)
from repro.simmpi.engine import (
    ElapseCmd,
    Engine,
    ExchangeCmd,
    ExchangeShape,
    RecvCmd,
    SendCmd,
    SendRecvCmd,
    WaitUntilCmd,
)
from repro.simmpi.message import ANY_SOURCE
from repro.simmpi.network import Level
from repro.simmpi.simulation import Simulation
from repro.simtime.hardware import HardwareClock
from tests.conftest import blocked_ranks


def make_engine(n=2, seed=0, network=None, level_of=None, **kw):
    engine = Engine(
        network=network or ideal_network(latency=1e-6),
        level_of=level_of or (lambda a, b: Level.REMOTE),
        seed=seed,
        **kw,
    )
    engine.add_processes(n)
    return engine


class TestBasics:
    def test_two_rank_message(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=5, payload="hi", size=8)
            return "sent"

        def receiver():
            msg = yield RecvCmd(source=0, tag=5)
            return msg.payload

        engine.bind(0, sender())
        engine.bind(1, receiver())
        assert engine.run() == ["sent", "hi"]
        assert engine.messages_delivered == 1

    def test_message_arrival_advances_time(self):
        engine = make_engine()
        times = {}

        def sender():
            yield SendCmd(dest=1, tag=1, payload=None, size=8)
            times["send"] = engine.proc_now(0)

        def receiver():
            yield RecvCmd(source=0, tag=1)
            times["recv"] = engine.proc_now(1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        assert times["recv"] >= 1e-6  # at least one latency

    def test_elapse_advances_only_local_time(self):
        engine = make_engine(1)

        def body():
            yield ElapseCmd(0.5)
            return engine.proc_now(0)

        engine.bind(0, body())
        assert engine.run() == [0.5]

    def test_wait_until_no_backward_jump(self):
        engine = make_engine(1)

        def body():
            yield ElapseCmd(1.0)
            yield WaitUntilCmd(0.5)  # already past: no-op
            return engine.proc_now(0)

        engine.bind(0, body())
        assert engine.run() == [1.0]

    def test_negative_elapse_rejected(self):
        engine = make_engine(1)

        def body():
            yield ElapseCmd(-1.0)

        engine.bind(0, body())
        with pytest.raises(SimulationError):
            engine.run()


class TestMatching:
    def test_fifo_per_pair(self):
        engine = make_engine()

        def sender():
            for i in range(5):
                yield SendCmd(dest=1, tag=1, payload=i, size=8)

        def receiver():
            got = []
            for _ in range(5):
                msg = yield RecvCmd(source=0, tag=1)
                got.append(msg.payload)
            return got

        engine.bind(0, sender())
        engine.bind(1, receiver())
        assert engine.run()[1] == [0, 1, 2, 3, 4]

    def test_tag_selective(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=8)
            yield SendCmd(dest=1, tag=2, payload="b", size=8)

        def receiver():
            msg_b = yield RecvCmd(source=0, tag=2)
            msg_a = yield RecvCmd(source=0, tag=1)
            return (msg_b.payload, msg_a.payload)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        assert engine.run()[1] == ("b", "a")

    def test_any_source(self):
        engine = make_engine(3)

        def sender(payload):
            def body():
                yield SendCmd(dest=2, tag=9, payload=payload, size=8)

            return body

        def receiver():
            got = set()
            for _ in range(2):
                msg = yield RecvCmd()  # ANY_SOURCE, ANY_TAG
                got.add(msg.payload)
            return got

        engine.bind(0, sender("x")())
        engine.bind(1, sender("y")())
        engine.bind(2, receiver())
        assert engine.run()[2] == {"x", "y"}

    def test_send_to_invalid_rank(self):
        engine = make_engine(1)

        def body():
            yield SendCmd(dest=5, tag=1)

        engine.bind(0, body())
        with pytest.raises(MatchingError):
            engine.run()

    @pytest.mark.parametrize("cmd, rank", [
        (RecvCmd(source=5, tag=1), 5),
        (SendRecvCmd(dest=1, tag=1, source=5, recv_tag=1), 5),
        (RecvCmd(source=-2, tag=1), -2),
    ], ids=["recv", "sendrecv", "negative"])
    def test_receive_from_invalid_rank(self, cmd, rank):
        """A receive no rank can satisfy fails as a send there does,
        not as a deadlock once the run ends."""
        engine = make_engine()

        def body():
            yield cmd

        def idle():
            return
            yield

        engine.bind(0, body())
        engine.bind(1, idle())
        with pytest.raises(
            MatchingError, match=f"receive from invalid rank {rank}$"
        ):
            engine.run()


class TestSsend:
    def test_ssend_blocks_until_matched(self):
        engine = make_engine()
        order = []

        def sender():
            yield SendCmd(dest=1, tag=1, payload=None, size=8,
                          synchronous=True)
            order.append(("sender_resumed", engine.proc_now(0)))

        def receiver():
            yield ElapseCmd(5.0)  # receiver is busy for 5 s
            yield RecvCmd(source=0, tag=1)
            order.append(("received", engine.proc_now(1)))

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        resumed = dict(order)["sender_resumed"]
        assert resumed >= 5.0  # the ack cannot precede the match

    def test_unmatched_ssend_deadlocks(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, synchronous=True)

        def receiver():
            yield RecvCmd(source=0, tag=999)  # never matches

        engine.bind(0, sender())
        engine.bind(1, receiver())
        with pytest.raises(DeadlockError):
            engine.run()


    def test_released_sender_is_never_listed_as_blocked(self):
        """From its ack wake to its next block a sender is runnable.

        With the receiver already waiting, the send itself releases the
        sender; marking it ``"ssend"`` after the hand-over left a runnable
        rank in ``blocked_ranks(engine)`` (and in a ``DeadlockError``'s states)
        until its queue event popped.
        """
        released = set()
        stale = []

        class Watch:
            def emit(self, event):
                if type(event) is ProcWake and event.cause == "ack":
                    released.add(event.rank)
                elif type(event) is ProcBlock:
                    released.discard(event.rank)
                stale.extend(released.intersection(blocked_ranks(engine)))

        engine = make_engine(network=infiniband_qdr(), sink=Watch())

        def sender():
            yield ElapseCmd(1.0)  # the receiver blocks first
            for _ in range(3):
                yield SendCmd(dest=1, tag=1, synchronous=True)
                yield RecvCmd(source=1, tag=2)

        def receiver():
            for _ in range(3):
                yield RecvCmd(source=0, tag=1)
                yield SendCmd(dest=0, tag=2)  # emits while 0 is released

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        assert engine.rendezvous_stalls == 3
        assert stale == []


class TestLifecycle:
    def test_deadlock_detected(self):
        engine = make_engine()

        def body():
            yield ElapseCmd(0.5)
            yield RecvCmd(source=0, tag=1)

        def other():
            yield RecvCmd(source=1, tag=1)

        engine.bind(0, other())
        engine.bind(1, body())
        with pytest.raises(DeadlockError) as err:
            engine.run()
        # Ranks, the receive each is blocked on, and since when.
        message = str(err.value)
        assert "ranks [0, 1] blocked" in message
        assert "0: (RecvCmd(source=1, tag=1), 0.0)" in message
        assert "1: (RecvCmd(source=0, tag=1), 0.5)" in message

    def test_deadlock_message_skips_finished_ranks(self):
        engine = make_engine(3)

        def done():
            return
            yield

        def stuck():
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, done())
        engine.bind(1, stuck())
        engine.bind(2, done())
        with pytest.raises(DeadlockError, match=r"ranks \[1\] blocked"):
            engine.run()

    @pytest.mark.parametrize("p", [1, 2])
    def test_inline_rank_meets_the_horizon(self, p):
        """A rank that never leaves the inline loop still hits max_true_time.

        The event loop checks the horizon on popped events only; rank 0
        elapsing forever (its peers blocked in recv, the queue empty)
        never goes back through the queue.  The loop is bounded so a
        regression fails here instead of hanging the suite.
        """
        sim = Simulation(
            Machine(p, 1, 1, 1), infiniband_qdr(), max_true_time=100.0
        )

        def main(ctx, comm):
            if ctx.rank == 0:
                for _ in range(10_000):
                    yield from ctx.elapse(1.0)
                return ctx.now
            yield from comm.recv(source=0, tag=0)

        with pytest.raises(SimulationError, match="max_true_time=100.0"):
            sim.run(main)
        assert sim.engine.proc_now(0) <= 102.0

    def test_finishing_past_the_horizon_is_not_an_error(self):
        """Only a *command* issued past the horizon raises."""
        engine = make_engine(1, max_true_time=10.0)

        def body():
            yield WaitUntilCmd(true_time=50.0)
            return "done"

        engine.bind(0, body())
        assert engine.run() == ["done"]

    def test_cannot_run_twice(self):
        engine = make_engine(1)

        def body():
            return
            yield

        engine.bind(0, body())
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()

    def test_unbound_rank_rejected(self):
        engine = make_engine(2)

        def body():
            return
            yield

        engine.bind(0, body())
        with pytest.raises(SimulationError):
            engine.run()

    def test_double_bind_rejected(self):
        engine = make_engine(1)

        def body():
            return
            yield

        engine.bind(0, body())
        with pytest.raises(SimulationError):
            engine.bind(0, body())

    def test_add_after_run_rejected(self):
        engine = make_engine(1)

        def body():
            return
            yield

        engine.bind(0, body())
        engine.run()
        with pytest.raises(SimulationError):
            engine.add_processes(1)


class TestStats:
    def test_bytes_delivered_and_stats_snapshot(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=100)
            yield SendCmd(dest=1, tag=1, payload="b", size=28)

        def receiver():
            yield RecvCmd(source=0, tag=1)
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        assert engine.bytes_delivered == 128
        stats = engine.stats()
        assert stats == {
            "num_ranks": 2,
            "messages_sent": 2,
            "messages_delivered": 2,
            "messages_unreceived": 0,
            "bytes_sent": 128,
            "bytes_delivered": 128,
            "rendezvous_stalls": 0,
            "max_mailbox_depth": stats["max_mailbox_depth"],
            "gate_deferrals": stats["gate_deferrals"],
            "events_processed": stats["events_processed"],
            "max_queue_depth": stats["max_queue_depth"],
        }
        assert stats["max_mailbox_depth"] >= 0
        assert stats["gate_deferrals"] >= 0
        # Queue pops: the two starts.  Neither send was ahead of the
        # frontier and the receiver found both messages in its mailbox.
        assert stats["events_processed"] == 2
        assert stats["gate_deferrals"] == 0
        assert stats["max_queue_depth"] >= 1

    def test_unreceived_messages_counted(self):
        """Fire-and-forget sends end up in messages_unreceived."""
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=8)
            yield SendCmd(dest=1, tag=1, payload="b", size=8)

        def receiver():
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        stats = engine.stats()
        assert stats["messages_sent"] == 2
        assert stats["messages_delivered"] == 1
        assert stats["messages_unreceived"] == 1
        assert (
            stats["messages_sent"]
            == stats["messages_delivered"] + stats["messages_unreceived"]
        )

    def test_metrics_counters_match_stats(self):
        """The documented engine.messages.* counters track the stats.

        Regression for the count drift where the metrics docstring
        promised engine.messages.sent/delivered but the engine never
        emitted them.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = make_engine(metrics=registry)

        def sender():
            yield SendCmd(dest=1, tag=1, payload="a", size=100)
            yield SendCmd(dest=1, tag=1, payload="b", size=28)

        def receiver():
            yield RecvCmd(source=0, tag=1)
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        stats = engine.stats()
        assert registry.merged_counter("engine.messages.sent") == (
            stats["messages_sent"]
        ) == 2
        assert registry.merged_counter("engine.messages.delivered") == (
            stats["messages_delivered"]
        ) == 2
        assert registry.merged_counter("engine.bytes.sent") == 128

    def test_rendezvous_stall_counted(self):
        engine = make_engine()

        def sender():
            yield SendCmd(dest=1, tag=1, payload=None, size=8,
                          synchronous=True)

        def receiver():
            yield ElapseCmd(1.0)
            yield RecvCmd(source=0, tag=1)

        engine.bind(0, sender())
        engine.bind(1, receiver())
        engine.run()
        assert engine.stats()["rendezvous_stalls"] == 1


class TestGate:
    """What ``events_processed`` and ``gate_deferrals`` count.

    ``events_processed`` is queue pops, one ``_run_proc`` activation
    each.  A rank woken by a delivery runs from the ready list inside the
    activation that woke it, not through the queue, so pops can be fewer
    than messages.  ``gate_deferrals`` counts ordered commands (a send, an
    ``ANY_SOURCE`` receive) put back because another rank could still act
    before them; nothing else is gated.
    """

    @pytest.mark.parametrize("network", [ideal_network, infiniband_qdr])
    @pytest.mark.parametrize("n", [1, 50])
    def test_pingpong_never_touches_the_queue(self, network, n):
        engine = make_engine(network=network())

        def ping():
            for i in range(n):
                yield SendCmd(dest=1, tag=1, payload=i)
                yield RecvCmd(source=1, tag=1)

        def pong():
            for _ in range(n):
                msg = yield RecvCmd(source=0, tag=1)
                yield SendCmd(dest=0, tag=1, payload=msg.payload)

        engine.bind(0, ping())
        engine.bind(1, pong())
        engine.run()
        stats = engine.stats()
        assert stats["messages_delivered"] == 2 * n
        assert stats["events_processed"] == 2  # the two starts
        assert stats["gate_deferrals"] == 0

    @staticmethod
    def _sync_run(label, seed=0):
        """(``Engine.stats()``, ``_run_proc`` entries) of one sync at 16×4."""
        from repro.sync.registry import algorithm_from_label

        algorithm = algorithm_from_label(label, fitpoint_spacing=1e-3)
        sim = Simulation(Machine(16, 1, 4, 4), infiniband_qdr(), seed=seed)
        run_proc = sim.engine._run_proc
        entries = 0

        def counting_run_proc(proc):
            nonlocal entries
            entries += 1
            run_proc(proc)

        sim.engine._run_proc = counting_run_proc

        def main(ctx, comm):
            yield from algorithm.sync_clocks(comm, ctx.hardware_clock)

        return sim.run(main).engine_stats, entries

    @classmethod
    def _sync_stats(cls, label, seed=0):
        return cls._sync_run(label, seed)[0]

    def test_jk_is_serial_one_start_per_rank_one_deferral_per_client(self):
        """JK at p = 16·4 ranks, r = 4 per node: the root (rank 0) sends
        each client a go-signal, then answers its ping-pongs.

        Every go-signal after the first finds the client just served on
        the ready list, so it defers unless it is a hand-over.  The p − r
        to clients on other nodes are REMOTE and defer.  The one to
        client 2 defers too: client 1 got its go-signal at t = 0 and its
        whole learning phase ran as hand-overs while the start events of
        ranks 2 … p − 1 were still queued, so client 2 is not yet waiting.
        The other r − 3 node-local go-signals and all of client 1's pings
        are handed over.  Deferrals p − r + 1 = 61, events p + 61 = 125.
        """
        stats = self._sync_stats("jk/4/skampi_offset/3")
        p, r = stats["num_ranks"], 4
        assert stats["messages_sent"] > 20 * p
        assert stats["gate_deferrals"] == p - r + 1
        assert stats["events_processed"] == 2 * p - r + 1 == 125

    def test_flat_hca3_is_one_event_per_message(self):
        stats = self._sync_stats("hca3/recompute_intercept/4/skampi_offset/3")
        p = stats["num_ranks"]
        assert stats["events_processed"] == p + stats["gate_deferrals"]
        assert stats["gate_deferrals"] <= stats["messages_sent"]

    @pytest.mark.parametrize("label", [
        "hca3/recompute_intercept/4/skampi_offset/3", "jk/4/skampi_offset/3",
    ], ids=["flat_hca3", "jk"])
    def test_one_activation_per_queue_event(self, label):
        """Woken ranks run inside the activation that woke them, so the
        loop enters ``_run_proc`` once per pop and never for a wake."""
        stats, entries = self._sync_run(label)
        assert stats["messages_delivered"] > stats["events_processed"]
        assert entries == stats["events_processed"]

    #: command issued by rank 0 at t=1 while rank 1 is queued at t=0,
    #: what rank 1 does so that rank 0 completes, deferrals expected.
    AHEAD = {
        "elapse": (lambda: ElapseCmd(1.0), None, 0),
        "wait_until": (lambda: WaitUntilCmd(5.0), None, 0),
        "recv_named": (
            lambda: RecvCmd(source=1, tag=1), lambda: SendCmd(0, 1), 0,
        ),
        "send": (lambda: SendCmd(1, 1), lambda: RecvCmd(source=0, tag=1), 1),
        "recv_any_source": (lambda: RecvCmd(), lambda: SendCmd(0, 1), 1),
    }

    def _ahead(self, name, **kw):
        make_cmd, make_peer_cmd, deferrals = self.AHEAD[name]
        engine = make_engine(**kw)

        def ahead():
            yield ElapseCmd(1.0)
            yield make_cmd()

        def peer():
            if make_peer_cmd is not None:
                yield make_peer_cmd()

        engine.bind(0, ahead())
        engine.bind(1, peer())
        return engine, deferrals

    @pytest.mark.parametrize("name", list(AHEAD))
    def test_only_ordered_commands_are_gated(self, name):
        engine, deferrals = self._ahead(name)
        engine.run()
        assert engine.gate_deferrals == deferrals
        assert engine.events_processed == 2 + deferrals

    #: Hand-overs: rank 0 blocks at t=0 on the receives given, then rank
    #: 1 sends it the tags given at t=1 while rank 2 (another node) is
    #: still queued at t=0.  Ranks 0 and 1 share a node unless
    #: ``remote``.  name -> (receives as (source, tag), tags sent,
    #: remote, stateful injector, deferrals expected).
    AHEAD_LOCAL = {
        "waiting_named_receiver": ([(1, 1)], (1,), False, False, 0),
        "remote_pair": ([(1, 1)], (1,), True, False, 1),
        "receiver_on_another_tag": (
            [(1, 2), (1, 1)], (1, 2), False, False, 1,
        ),
        "receiver_on_any_source": ([(ANY_SOURCE, 1)], (1,), False, False, 1),
        "stateful_injector": ([(1, 1)], (1,), False, True, 1),
    }

    @pytest.mark.parametrize("name", list(AHEAD_LOCAL))
    def test_a_send_is_handed_over_only_to_a_node_local_named_wait(self, name):
        from repro.faults import (
            CongestionAdversary, FaultInjector, FaultSchedule,
        )

        receives, tags, remote, stateful, deferrals = self.AHEAD_LOCAL[name]
        engine = make_engine(
            3,
            level_of=None if remote else lambda a, b: (
                Level.NODE if a // 2 == b // 2 else Level.REMOTE
            ),
            node_of=lambda rank: rank // 2,
            injector=FaultInjector(
                FaultSchedule("q", [CongestionAdversary()])
            ) if stateful else None,
        )

        def receiver():
            got = []
            for source, tag in receives:
                msg = yield RecvCmd(source, tag)
                got.append(msg.tag)
            return got

        def sender():
            yield ElapseCmd(1.0)
            for tag in tags:
                yield SendCmd(0, tag)

        def idle():
            return
            yield

        engine.bind(0, receiver())
        engine.bind(1, sender())
        engine.bind(2, idle())
        assert engine.run()[0] == [tag for _, tag in receives]
        assert engine.gate_deferrals == deferrals
        assert engine.events_processed == 3 + deferrals

    def test_named_receive_is_ordered_under_a_stateful_injector(self):
        """A receive can price a rendezvous ack through the injector; if
        that hook keeps state between calls, its calls must come in
        virtual-time order, so the receive is gated like a send."""
        from repro.faults import (
            CongestionAdversary, FaultInjector, FaultSchedule,
        )

        for injector, deferrals in (
            (FaultInjector(FaultSchedule("none")), 0),
            (FaultInjector(FaultSchedule("q", [CongestionAdversary()])), 1),
        ):
            engine, _ = self._ahead("recv_named", injector=injector)
            engine.run()
            assert engine.gate_deferrals == deferrals

    @pytest.mark.parametrize("name", list(AHEAD))
    def test_every_command_meets_the_horizon(self, name):
        """Gated or not: a command issued past max_true_time raises."""
        engine, _ = self._ahead(name, max_true_time=0.5)
        with pytest.raises(SimulationError, match="max_true_time=0.5"):
            engine.run()


class TestDeterminism:
    def _run_once(self, seed):
        from repro.cluster.netmodels import infiniband_qdr

        engine = make_engine(4, seed=seed, network=infiniband_qdr())
        log = []

        def body(rank):
            def gen():
                for i in range(3):
                    yield SendCmd(dest=(rank + 1) % 4, tag=1, payload=rank,
                                  size=8)
                    msg = yield RecvCmd(source=(rank - 1) % 4, tag=1)
                    log.append((rank, i, msg.payload, engine.proc_now(rank)))

            return gen()

        for r in range(4):
            engine.bind(r, body(r))
        engine.run()
        return log

    def test_same_seed_identical_history(self):
        assert self._run_once(11) == self._run_once(11)

    def test_different_seed_different_times(self):
        a = self._run_once(1)
        b = self._run_once(2)
        assert [t for *_, t in a] != [t for *_, t in b]


class TestExchange:
    """``ExchangeCmd``: one command per side of a learn round's points,
    n timestamped ping-pongs each.

    That it equals the written-out loop message for message is
    tests/properties/test_property_exchange.py; here: what each side gets
    back, and what is rejected before any leg runs.
    """

    @staticmethod
    def _pair(shape, n=3, points=1, spacing=0.0):
        engine = make_engine()
        clock = HardwareClock()  # reads true time

        def side(peer, initiator):
            measured = yield ExchangeCmd(
                peer, 7, n, clock, shape, initiator, 8, points, spacing
            )
            return measured

        engine.bind(0, side(1, False))
        engine.bind(1, side(0, True))
        return engine, engine.run()

    @pytest.mark.parametrize("shape", list(ExchangeShape))
    def test_initiator_gets_the_rounds_responder_none(self, shape):
        engine, (responder, initiator) = self._pair(shape)
        assert responder is None
        [(rounds, timestamp)] = initiator
        assert len(rounds) == 3
        assert engine.messages_sent == engine.messages_delivered == 6
        last = 0.0
        for before, stamp, after in rounds:
            if shape is ExchangeShape.RENDEZVOUS:
                assert before is None
            else:
                assert last <= before < after
            if shape is ExchangeShape.TIMED:
                assert stamp == 0.0  # the RTT pong carries no reading
            else:
                # One clock for both sides: the pong was stamped between
                # the ping's departure and the pong's arrival.
                assert (before or last) < stamp < after
            last = after
        if shape is ExchangeShape.STAMPED:
            assert timestamp >= last  # the SKaMPI timestamp, read last
        else:
            assert timestamp is None
        assert engine.rendezvous_stalls == (
            6 if shape is ExchangeShape.RENDEZVOUS else 0
        )

    @pytest.mark.parametrize("shape", list(ExchangeShape))
    def test_points_are_paced_by_the_spacing(self, shape):
        engine, (responder, initiator) = self._pair(
            shape, n=2, points=3, spacing=1e-3
        )
        assert responder is None
        assert [len(rounds) for rounds, _ in initiator] == [2, 2, 2]
        assert engine.messages_sent == 12
        for (rounds, _), (following, _) in zip(initiator, initiator[1:]):
            # The initiator computed 1 ms between its last reading of a
            # point and its first of the next.
            gap = (following[0][0] or following[0][2]) - rounds[-1][2]
            assert 0.999e-3 < gap < 1.1e-3

    def test_each_read_charges_the_clock_overhead(self):
        engine = make_engine(network=ideal_network(latency=1e-6))
        costly = HardwareClock(read_overhead=1e-3)

        def side(peer, initiator):
            yield ExchangeCmd(
                peer, 7, 2, costly, ExchangeShape.STAMPED, initiator
            )

        engine.bind(0, side(1, False))
        engine.bind(1, side(0, True))
        engine.run()
        # Initiator: two reads per round trip; responder: one.
        assert engine.proc_now(1) >= 4e-3
        assert 2e-3 <= engine.proc_now(0) < engine.proc_now(1)

    @pytest.mark.parametrize("field, value, complaint", [
        ("n", 0, "n >= 1"), ("size", -1, "size must be >= 0"),
        ("shape", "stamped", "must be an ExchangeShape"),
        ("points", 0, "points >= 1"), ("spacing", -1e-3, "negative"),
    ])
    def test_construction_rejects(self, field, value, complaint):
        kwargs = {
            "n": 1, "size": 8, "shape": ExchangeShape.STAMPED, field: value,
        }
        with pytest.raises(SimulationError, match=complaint):
            ExchangeCmd(
                peer=1, tag=7, clock=HardwareClock(), initiator=True,
                **kwargs,
            )

    @pytest.mark.parametrize("peer, complaint", [
        (2, "invalid rank 2"), (-1, "invalid rank -1"), (0, "with itself"),
    ])
    def test_acceptance_rejects_the_peer_before_any_leg(self, peer, complaint):
        engine = make_engine()

        def body():
            yield ExchangeCmd(
                peer, 7, 4, HardwareClock(), ExchangeShape.STAMPED, True
            )

        def idle():
            return
            yield

        engine.bind(0, body())
        engine.bind(1, idle())
        with pytest.raises(MatchingError, match=complaint):
            engine.run()
        assert engine.messages_sent == 0
        assert engine.proc_now(0) == 0.0  # not even a clock read


class TestExchangeLoop:
    """The exchange loop (``Engine._play_exchange``) against the
    written-out ping-pong loop, one fixed program per exit.

    Rank 1 answers rank 2's SKaMPI ping-pongs; the three ranks sit on
    three nodes, so every leg is ``REMOTE`` and meets the gate.  Rank 0,
    if given a time ``t``, computes until ``t`` and then sends: its send
    waits in the queue at ``t``, and the first exchange leg issued past
    ``t`` defers.  The loop must leave exactly the state the leg path
    would, so both runs agree on ``Engine.stats()``, final times, the
    readings handed back and the event stream (``sync.offset`` phase
    records included).  With several points, the loop carries on from
    one point into the next.
    """

    N = 3
    SPACING = 1e-4

    def _run(self, third_at, fused, exits=None, points=1):
        from repro.sync.offset import PINGPONG_TAG, TIMESTAMP_BYTES
        from tests.properties.test_property_exchange import _written_out

        n, shape = self.N, ExchangeShape.STAMPED

        def main(ctx, comm):
            if ctx.rank == 0:
                if third_at is not None:
                    yield from ctx.elapse(third_at)
                    yield from ctx.send(1, 99)
                return ctx.now, None
            initiator = ctx.rank == 2
            peer = 1 if initiator else 2
            clock = ctx.hardware_clock
            phase = ("sync.offset", "skampi_offset", 1, 2)
            if fused:
                measured = yield ExchangeCmd(
                    peer, PINGPONG_TAG, n, clock, shape, initiator,
                    TIMESTAMP_BYTES, points, self.SPACING, phase,
                )
            else:
                measured = yield from _written_out(
                    ctx, peer, n, clock, shape, initiator, points,
                    self.SPACING, phase,
                )
            return ctx.now, measured

        sink = RecordingSink()
        sim = Simulation(
            Machine(3, 1, 1, 1), infiniband_qdr(), seed=4, sink=sink,
            check="strict",
        )
        if exits is not None:
            play = sim.engine._play_exchange

            def spy(ini, res):
                out = play(ini, res)
                exits.append(
                    "A" if out is not None
                    else "B" if ini.blocked is not None else "C"
                )
                return out

            sim.engine._play_exchange = spy
        result = sim.run(main)
        return result.engine_stats, result.values, sink.events

    def _send_times(self, points=1):
        """MsgSend times of the lone exchange: ping, pong, ping, ..."""
        _, _, events = self._run(None, fused=True, points=points)
        return [e.time for e in events if type(e) is MsgSend]

    def _check(self, third_at, expected, points=1):
        exits = []
        fused = self._run(third_at, True, exits, points)
        written_out = self._run(third_at, False, points=points)
        assert fused == written_out
        assert exits == expected
        return fused

    def test_exit_c_the_last_pong_is_delivered(self):
        stats, values, _ = self._check(None, ["C"])
        assert stats["gate_deferrals"] == 0
        [(rounds, _)] = values[2][1]
        assert len(rounds) == self.N

    def test_the_loop_runs_on_across_points(self):
        stats, values, events = self._check(None, ["C"], points=3)
        assert stats["gate_deferrals"] == 0
        assert [len(rounds) for rounds, _ in values[2][1]] == [self.N] * 3
        for rank in (1, 2):
            phases = [
                type(e) for e in events
                if type(e) in (PhaseBegin, PhaseEnd) and e.rank == rank
            ]
            assert phases == [PhaseBegin, PhaseEnd] * 3

    def test_exit_a_in_the_pause_between_points(self):
        times = self._send_times(points=2)
        last_pong, next_ping = times[2 * self.N - 1], times[2 * self.N]
        stats, _, _ = self._check(
            (last_pong + next_ping) / 2, ["A", "C"], points=2
        )
        assert stats["gate_deferrals"] == 2

    def test_exit_a_the_next_ping_defers(self):
        ping1, pong1, ping2 = self._send_times()[:3]
        stats, _, _ = self._check((pong1 + ping2) / 2, ["A", "C"])
        # The deferred ping, and rank 0's send (issued ahead of the
        # exchange's start events).
        assert stats["gate_deferrals"] == 2

    def test_exit_b_the_pong_defers(self):
        times = self._send_times()
        ping2, pong2 = times[2], times[3]
        stats, _, _ = self._check((ping2 + pong2) / 2, ["B", "C"])
        assert stats["gate_deferrals"] == 2


class TestRemovedOptions:
    """The engine has one configuration; its old perf knobs are gone."""

    REMOVED = {
        "event_queue": "heap",
        "bucket_width": 1e-6,
        "delay_mode": "burst",
        "delay_burst": 64,
        "rng_pool_chunk": 1,
    }

    def test_engine_rejects_them(self):
        for name, value in self.REMOVED.items():
            with pytest.raises(TypeError, match=name):
                make_engine(**{name: value})

    def test_simulation_rejects_them(self):
        for name, value in self.REMOVED.items():
            with pytest.raises(TypeError, match=name):
                Simulation(
                    Machine(2, 1, 1, 1), infiniband_qdr(), **{name: value}
                )
