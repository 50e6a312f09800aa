"""Engine-mutant suite: proof the sanitizer has teeth.

Each test installs one deliberately broken engine behaviour (a *mutant*)
on a live :class:`~repro.simmpi.engine.Engine` and asserts the strict
sanitizer kills the run with the expected rule.  If a refactor ever
neuters a check, the corresponding mutant survives and this suite fails
— the property/conformance tests only show clean runs pass; these show
dirty runs cannot.

Mutants (rule each must trip):

1. LIFO mailbox matching            → ``fifo-order``
2. message silently dropped         → ``stats-consistency``
3. message delivered twice          → ``conservation``
4. event stamped with a past time   → ``monotonic-time``
5. delivery counter not incremented → ``stats-consistency``
6. double ProcBlock on rendezvous   → ``lifecycle``
7. global clock with slope 2 / non-monotone → ``clock-sanity``
8. event queue that reports no frontier     → ``send-order``
9. send handed over on a REMOTE pair        → ``send-order``
10. send handed over to an ANY_SOURCE wait  → ``send-order``
"""

from __future__ import annotations

import types
from math import inf

import pytest

from repro.check import InvariantViolation, assert_clock_sane, checking
from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.cluster.topology import Machine
from repro.obs import events as ev
from repro.simmpi.engine import RecvCmd
from repro.simmpi.eventq import HeapQueue
from repro.simmpi.message import ANY_SOURCE
from repro.simmpi.network import Level
from repro.simmpi.simulation import Simulation


def make_sim(check="strict"):
    machine = Machine(num_nodes=2, sockets_per_node=1, cores_per_socket=1,
                      ranks_per_node=1, name="mutantbox")
    return Simulation(machine=machine, network=ideal_network(), seed=3,
                      check=check)


def two_sends_then_recvs(ctx, comm):
    """Rank 0 sends twice on one channel; rank 1 queues both, then recvs."""
    if ctx.rank == 0:
        yield from comm.send(1, tag=1, payload="first")
        yield from comm.send(1, tag=1, payload="second")
        return None
    yield from ctx.elapse(0.1)  # both messages land in the mailbox
    a = yield from comm.recv(0, tag=1)
    b = yield from comm.recv(0, tag=1)
    return (a.payload, b.payload)


def fire_and_forget(ctx, comm):
    """Rank 0 sends a message rank 1 never receives (legal in MPI)."""
    if ctx.rank == 0:
        yield from comm.send(1, tag=1, payload="lost")
    else:
        yield from ctx.elapse(0.1)
    return None


def one_message(ctx, comm):
    if ctx.rank == 0:
        yield from comm.send(1, tag=1, payload="x")
        return None
    msg = yield from comm.recv(0, tag=1)
    return msg.payload


def rendezvous(ctx, comm):
    if ctx.rank == 0:
        yield from comm.ssend(1, tag=1, payload="x")
        return None
    yield from ctx.elapse(0.01)
    msg = yield from comm.recv(0, tag=1)
    return msg.payload


def fan_in(ctx, comm):
    """Higher ranks send earlier, all into rank 0's node: the sends
    contend for one NIC ingress, so their order is simulated state."""
    if ctx.rank == 0:
        for source in range(1, ctx.nprocs):
            yield from comm.recv(source, tag=1)
        return None
    yield from ctx.elapse((ctx.nprocs - ctx.rank) * 1e-6)
    yield from comm.send(0, tag=1, payload=ctx.rank)
    return None


def late_named_sender(ctx, comm):
    """Rank 1 sends at t=5 µs to a rank 0 already waiting for it; rank 2
    sends to rank 3 at t=1 µs.  On a machine with one rank per node."""
    if ctx.rank == 0:
        yield from comm.recv(1, tag=1)
    elif ctx.rank == 1:
        yield from ctx.elapse(5e-6)
        yield from comm.send(0, tag=1)
    elif ctx.rank == 2:
        yield from ctx.elapse(1e-6)
        yield from comm.send(3, tag=1)
    else:
        yield from comm.recv(2, tag=1)
    return None


def any_source_race(ctx, comm):
    """Rank 1 sends at t=5 µs and rank 2 at t=1 µs into rank 0's
    ANY_SOURCE receives, all on one node: the earlier send must win."""
    if ctx.rank == 0:
        first = yield from ctx.recv(ANY_SOURCE, 1)
        yield from ctx.recv(ANY_SOURCE, 1)
        return first.source
    if ctx.rank in (1, 2):
        yield from ctx.elapse(5e-6 if ctx.rank == 1 else 1e-6)
        yield from ctx.send(0, 1)
    return None


def make_hand_over_sim(main):
    machine = (
        Machine(4, 1, 1, 1, name="remote")
        if main is late_named_sender else Machine(1, 1, 4, 4, name="local")
    )
    return Simulation(machine=machine, network=infiniband_qdr(), seed=3,
                      check="strict")


def loose_hand_over(remote_ok, any_source_ok):
    """Mutants 9 and 10: ``Engine._hand_over_level`` that also hands a
    send over on a REMOTE pair, or to a receiver blocked on ANY_SOURCE."""

    def hand_over_level(self, proc, cmd):
        waiting = self._procs[cmd.dest].blocked
        if type(waiting) is not RecvCmd or waiting.source not in (
            (proc.rank, ANY_SOURCE) if any_source_ok else (proc.rank,)
        ):
            return None
        level = self._level(proc.rank, cmd.dest)
        return None if level is Level.REMOTE and not remote_ok else level

    return hand_over_level


class BlindQueue(HeapQueue):
    """Mutant 8: the frontier the causality gate compares against is
    always "nothing pending", so no rank is ever ahead of it."""

    __slots__ = ()
    frontier = property(lambda self: inf, lambda self, value: None)


def make_fan_in_sim(blind):
    sim = Simulation(
        machine=Machine(4, 1, 1, 1, name="fanin"), network=infiniband_qdr(),
        seed=3, check="strict",
    )
    if blind:
        sim.engine._make_queue = BlindQueue
    return sim


def run_mutated(sim, main):
    for rank in range(sim.machine.num_ranks):
        sim.engine.bind(rank, main(sim.contexts[rank], sim.world(rank)))
    values = sim.engine.run()
    sim.checker.finalize(sim.engine)
    return values


class TestEngineMutants:
    def test_lifo_matching_caught(self):
        """Mutant 1: mailbox matched newest-first (breaks non-overtaking)."""
        sim = make_sim()

        def lifo_match(self, proc, source, tag):
            for i in range(len(proc.mailbox) - 1, -1, -1):
                msg = proc.mailbox[i]
                if msg.matches(source, tag):
                    del proc.mailbox[i]
                    return msg
            return None

        sim.engine._match_mailbox = types.MethodType(lifo_match, sim.engine)
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, two_sends_then_recvs)
        assert info.value.violation.rule == "fifo-order"

    def test_dropped_message_caught(self):
        """Mutant 2: a deposited message vanishes from the mailbox."""
        sim = make_sim()
        original = sim.engine._do_send

        def dropping_send(self, proc, cmd, level):
            original(proc, cmd, level)
            dest = self._procs[cmd.dest]
            if dest.mailbox:
                dest.mailbox.pop()  # the message is never seen again

        sim.engine._do_send = types.MethodType(dropping_send, sim.engine)
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, fire_and_forget)
        assert info.value.violation.rule == "stats-consistency"

    def test_double_delivery_caught(self):
        """Mutant 3: the same message completes delivery twice."""
        sim = make_sim()
        original = sim.engine._finish_delivery

        def doubling_delivery(self, proc, msg):
            out = original(proc, msg)
            self.sink.emit(ev.MsgDeliver(
                time=proc.now, rank=proc.rank, source=msg.source,
                tag=msg.tag, size=msg.size, seq=msg.seq, latency=0.0,
            ))
            return out

        sim.engine._finish_delivery = types.MethodType(
            doubling_delivery, sim.engine
        )
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, one_message)
        assert info.value.violation.rule == "conservation"

    def test_backwards_timestamp_caught(self):
        """Mutant 4: an event stamped before the rank's time line."""
        sim = make_sim()
        original = sim.engine._finish_delivery

        def misstamping_delivery(self, proc, msg):
            out = original(proc, msg)
            self.sink.emit(ev.ProcWake(time=-1.0, rank=proc.rank))
            return out

        sim.engine._finish_delivery = types.MethodType(
            misstamping_delivery, sim.engine
        )
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, one_message)
        assert info.value.violation.rule == "monotonic-time"

    def test_lost_delivery_counter_caught(self):
        """Mutant 5: Engine.stats() undercounts deliveries by one."""
        sim = make_sim()
        original = sim.engine._finish_delivery

        def uncounted_delivery(self, proc, msg):
            out = original(proc, msg)
            self.messages_delivered -= 1
            return out

        sim.engine._finish_delivery = types.MethodType(
            uncounted_delivery, sim.engine
        )
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, one_message)
        assert info.value.violation.rule == "stats-consistency"

    def test_double_block_caught(self):
        """Mutant 6: a rendezvous sender blocks twice without waking."""
        sim = make_sim()
        original = sim.engine._do_send

        def double_blocking_send(self, proc, cmd, level):
            if cmd.synchronous:
                self.sink.emit(ev.ProcBlock(
                    time=proc.now, rank=proc.rank, reason="recv",
                    source=cmd.dest, tag=cmd.tag,
                ))
            original(proc, cmd, level)

        sim.engine._do_send = types.MethodType(
            double_blocking_send, sim.engine
        )
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, rendezvous)
        assert info.value.violation.rule == "lifecycle"

    def test_blind_gate_caught(self):
        """Mutant 8: sends run in host order, not simulated-time order.

        Each rank's own time line stays monotone, so ``monotonic-time``
        is silent; only the order of sends *across* ranks gives it away.
        """
        sim = make_fan_in_sim(blind=True)
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, fan_in)
        assert info.value.violation.rule == "send-order"

    @pytest.mark.parametrize("main, remote_ok, any_source_ok", [
        (late_named_sender, True, False),
        (any_source_race, False, True),
    ], ids=["remote_pair", "any_source_receiver"])
    def test_loose_hand_over_caught(self, main, remote_ok, any_source_ok):
        """Mutants 9 and 10: a send handed over where it must be ordered.

        The late send runs at t=5 µs before the one issued at t=1 µs; the
        sanitizer exempts only sends it can tell are hand-overs (not
        REMOTE, receiver blocked on a receive naming the sender), so
        neither of these is exempt.
        """
        sim = make_hand_over_sim(main)
        sim.engine._hand_over_level = types.MethodType(
            loose_hand_over(remote_ok, any_source_ok), sim.engine
        )
        with pytest.raises(InvariantViolation) as info:
            run_mutated(sim, main)
        assert info.value.violation.rule == "send-order"

    def test_report_mode_flags_instead_of_raising(self):
        """The same mutant in report mode: run completes, report dirty."""
        sim = make_sim(check="report")

        def lifo_match(self, proc, source, tag):
            for i in range(len(proc.mailbox) - 1, -1, -1):
                msg = proc.mailbox[i]
                if msg.matches(source, tag):
                    del proc.mailbox[i]
                    return msg
            return None

        sim.engine._match_mailbox = types.MethodType(lifo_match, sim.engine)
        values = run_mutated(sim, two_sends_then_recvs)
        assert values[1] == ("second", "first")  # the mutant really fired
        report = sim.checker.report
        assert not report.ok
        assert "fifo-order" in [v.rule for v in report.violations]

    def test_unmutated_engine_is_clean(self):
        """Control: every mutant program is sanitizer-clean unmutated."""
        for body in (two_sends_then_recvs, fire_and_forget, one_message,
                     rendezvous):
            sim = make_sim()
            run_mutated(sim, body)
            assert sim.checker.report.ok
        sim = make_fan_in_sim(blind=False)
        run_mutated(sim, fan_in)
        assert sim.checker.report.ok
        assert sim.engine.gate_deferrals > 0  # the gate did the ordering
        for body in (late_named_sender, any_source_race):
            sim = make_hand_over_sim(body)
            values = run_mutated(sim, body)
            assert sim.checker.report.ok
            assert sim.engine.gate_deferrals > 0
            if body is any_source_race:
                assert values[0] == 2  # the send issued at t=1 µs won


class TestClockMutants:
    class _SlopeTwoClock:
        def read(self, t: float) -> float:
            return 2.0 * t

    class _BackwardsClock:
        def read(self, t: float) -> float:
            return 10.0 - t

    def test_wrong_slope_caught(self):
        with pytest.raises(InvariantViolation) as info:
            assert_clock_sane(self._SlopeTwoClock(), 1.0, 2.0)
        assert info.value.violation.rule == "clock-sanity"

    def test_backwards_clock_caught(self):
        with pytest.raises(InvariantViolation) as info:
            assert_clock_sane(self._BackwardsClock(), 1.0, 2.0)
        assert info.value.violation.rule == "clock-sanity"

    def test_sane_clock_passes(self):
        class Identity:
            def read(self, t: float) -> float:
                return t + 0.5

        assert_clock_sane(Identity(), 1.0, 2.0)


class TestCheckingContextIsolation:
    def test_env_restored_after_block(self):
        import os

        from repro.check.config import MODE_ENV

        before = os.environ.get(MODE_ENV)
        with checking("strict"):
            assert os.environ[MODE_ENV] == "strict"
        assert os.environ.get(MODE_ENV) == before
