"""Property: an ``ExchangeCmd`` is the written-out ping-pong loop.

``ExchangeCmd`` promises the messages, events, clock reads, RNG draws and
causality-gate decisions of the ``read_clock``/``SendRecvCmd``/``RecvCmd``/
``SendCmd``/``ElapseCmd`` loops ``sync/offset.py`` and ``sync/learn.py``
used to spell out, the ``sync.offset`` phase records included; only the
generator resumes between the legs and between the points are gone.
Those loops live on here as the reference (``_written_out``).  Hypothesis
draws programs of exchange steps over the pairings the sync algorithms
use (disjoint neighbours, hypercube partners, JK's one reference serving
every client in turn), with all three leg shapes, one to four points per
command paced 0, 0.1 or 1 ms apart, with or without a phase descriptor,
one side possibly taking its points one command at a time against its
peer's one command (the loop must not start across such a mismatch),
and staggered compute so ranks run ahead of one another, and runs each
program both ways: engine counters (``gate_deferrals`` and
``events_processed`` included), per-rank final times and the readings
handed back must match exactly, and under the strict sanitizer with a
recording sink the event streams must match too.

The engine plays most round trips in its exchange loop
(``Engine._play_exchange``), which carries on across point boundaries and
hands back to the leg path when the gate would defer a ping (exit A) or
a pong (exit B) and when the last point's last pong is delivered (exit
C).  So the drawn programs also stagger ranks past one another's queue
events, attach a profiler (the ``engine.send``, ``net.delay`` and
``clock.read`` zones count once per message or read either way), run
under stateless injectors (a straggler among them, so that the pause
between points is stretched inside the loop) and a stateful one (which
keeps every point on the leg path), and may leave a stray message from
the reference on the ping-pong tag in the client's mailbox, which the
client's first receive leg must take instead of the pong.

The loop writes each message's pricing out over locals rather than
calling ``_price``, so the drawn programs also reach the branches it
copies: a network whose ``REMOTE`` level has outliers on 30 % of its
messages and a torus fabric's latency (the outlier draw and ``fab``),
a node-mate's burst to the peer just before an exchange (NIC backlog
and congestion-jitter draws inside a loop entry), ``n`` up to 40 (one
entry crosses pool refills) and a ``max_true_time`` that falls inside
the run, where both forms must raise the same error and leave the same
state behind.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fabric import TorusFabric
from repro.cluster.netmodels import infiniband_qdr
from repro.errors import SimulationError
from repro.faults import (
    ByzantineClockAdversary, CongestionAdversary, FaultInjector,
    FaultSchedule, LinkFault, NicStormFault, StragglerFault,
)
from repro.obs import MetricsRegistry, SpanRecorder, TimeSeriesBank
from repro.obs.events import PhaseBegin, PhaseEnd, RecordingSink
from repro.prof import Profiler
from repro.simmpi.network import Level
from repro.simmpi.engine import (
    ElapseCmd,
    ExchangeCmd,
    ExchangeShape,
    RecvCmd,
    SendCmd,
    SendRecvCmd,
)
from repro.sync.clocks import GlobalClockLM
from repro.sync.linear_model import LinearDriftModel
from repro.sync.offset import PINGPONG_TAG, TIMESTAMP_BYTES
from repro.simmpi.simulation import Simulation
from tests.conftest import small_machine

#: Tag of the bursts node-mates send to a pair before its exchange.
BURST_TAG = 11
#: The client's wait after a burst of one message: a little more than
#: QDR's ``o_send``, so that its ping comes after the burst's last send
#: (which then cannot stop the loop) while a burst of 48 still holds
#: the sender's NIC busy through the round trip.
BURST_WAIT = 0.26e-6

#: HCA3's reference side reads through its global clock model.
REFERENCE_MODEL = LinearDriftModel(2e-6, 0.25)


def _written_out(ctx, peer, n, clock, shape, initiator, points=1,
                 spacing=0.0, phase=None):
    """The loops of ``sync/learn.py`` and ``sync/offset.py`` before
    ``ExchangeCmd``, as raw commands: ``points`` measurements, the
    initiator computing ``spacing`` between two, each inside its phase
    records when ``phase`` is given; within a measurement SKaMPI
    (stamped, then the initiator's timestamp read), the RTT estimate
    (timed) and Mean-RTT (rendezvous), initiator and responder side of
    each."""
    tag, size = PINGPONG_TAG, TIMESTAMP_BYTES
    sink = ctx.engine.sink if phase is not None else None
    stamped = shape is ExchangeShape.STAMPED
    measured = []
    for point in range(points):
        if initiator and spacing > 0.0 and point:
            yield ElapseCmd(spacing)
        if sink is not None:
            name, algorithm, ref, client = phase
            sink.emit(PhaseBegin(
                time=ctx.now, rank=ctx.rank, name=name,
                algorithm=algorithm, ref=ref, peer=client,
            ))
        rounds = []
        for _ in range(n):
            if shape is ExchangeShape.RENDEZVOUS:
                if initiator:
                    yield SendCmd(peer, tag, 0.0, size, synchronous=True)
                    msg = yield RecvCmd(peer, tag)
                    rounds.append((None, msg.payload, ctx.read_clock(clock)))
                else:
                    yield RecvCmd(peer, tag)
                    stamp = ctx.read_clock(clock)
                    yield SendCmd(peer, tag, stamp, size, synchronous=True)
            elif initiator:
                before = ctx.read_clock(clock)
                msg = yield SendRecvCmd(
                    peer, tag, before if stamped else 0.0, size, peer, tag
                )
                rounds.append((before, msg.payload, ctx.read_clock(clock)))
            else:
                yield RecvCmd(peer, tag)
                stamp = ctx.read_clock(clock) if stamped else 0.0
                yield SendCmd(peer, tag, stamp, size)
        timestamp = ctx.read_clock(clock) if initiator and stamped else None
        if sink is not None:
            sink.emit(PhaseEnd(time=ctx.now, rank=ctx.rank, name=name))
        measured.append((rounds, timestamp))
    return measured if initiator else None


def _pairs(pattern: str, k: int, size: int) -> list[tuple[int, int]]:
    """``(reference, client)`` pairs of one step, in serving order."""
    if pattern == "neighbours":
        return [(r, r + 1) for r in range(0, size - 1, 2)]
    if pattern == "xor":
        bit = 1 << (k % max(1, (size - 1).bit_length()))
        return [(r | bit, r) for r in range(size)
                if not r & bit and r | bit < size]
    return [(0, client) for client in range(1, size)]  # "star"


def _bursts(ctx, ref, client, legs):
    """``(sender, receiver)`` of the bursts before a pair's exchange: a
    node-mate of the client (the client itself if it has none) sends one
    to the reference, which backs up the ping's NICs, and a node-mate of
    the reference one to the client, which backs up the pong's; ``legs``
    picks ``"ping"``, ``"pong"`` or ``"both"``."""
    node_of = ctx.engine.node_of

    def mate(rank, peer):
        for other in range(ctx.nprocs):
            if other not in (rank, peer) and node_of(other) == node_of(rank):
                return other
        return rank

    bursts = {"ping": (mate(client, ref), ref),
              "pong": (mate(ref, client), client)}
    return [bursts[leg] for leg in bursts if legs in (leg, "both")]


def _program(steps, fused: bool):
    def main(ctx, comm):
        handed_back = []
        for (pattern, k, n, shape, stagger, stray, points, spacing,
             phased, split, (burst, legs)) in steps:
            yield from ctx.elapse(((comm.rank * 7 + k) % 5) * stagger)
            start = ctx.now
            # A stray needs eager legs: behind it a rendezvous pong
            # would wait for a receive that the next ping blocks.
            stray = stray and shape is not ExchangeShape.RENDEZVOUS
            pairs = _pairs(pattern, k, comm.size)
            for ref, client in pairs:
                for sender, receiver in _bursts(ctx, ref, client, legs):
                    if comm.rank == sender:
                        # Backlog on the ping's or the pong's way.
                        for _ in range(burst):
                            yield SendCmd(receiver, BURST_TAG, None, 64)
            for ref, client in pairs:
                if comm.rank not in (ref, client):
                    continue
                initiator = comm.rank == client
                peer = ref if initiator else client
                clock = ctx.hardware_clock
                if not initiator:
                    clock = GlobalClockLM(clock, REFERENCE_MODEL)
                if stray and not initiator:
                    yield SendCmd(peer, PINGPONG_TAG, -1.0, TIMESTAMP_BYTES)
                if burst and initiator:
                    yield from ctx.wait_until_true(start + burst * BURST_WAIT)
                phase = ("sync.offset", shape.value, ref, client)
                phase = phase if phased else None
                if fused and split == ("initiator", "responder")[
                    not initiator
                ]:
                    # This side takes its points one command at a time,
                    # while its peer takes them in one.
                    rounds = []
                    for point in range(points):
                        if initiator and spacing > 0.0 and point:
                            yield ElapseCmd(spacing)
                        measured = yield ExchangeCmd(
                            peer, PINGPONG_TAG, n, clock, shape, initiator,
                            TIMESTAMP_BYTES, 1, 0.0, phase,
                        )
                        rounds += measured or []
                    rounds = rounds if initiator else None
                elif fused:
                    rounds = yield ExchangeCmd(
                        peer, PINGPONG_TAG, n, clock, shape, initiator,
                        TIMESTAMP_BYTES, points, spacing, phase,
                    )
                else:
                    rounds = yield from _written_out(
                        ctx, peer, n, clock, shape, initiator, points,
                        spacing, phase,
                    )
                if stray and initiator:
                    # The last pong, left over behind the stray.
                    yield RecvCmd(peer, PINGPONG_TAG)
                for sender, receiver in _bursts(ctx, ref, client, legs):
                    if comm.rank == receiver:
                        for _ in range(burst):
                            yield RecvCmd(sender, BURST_TAG)
                handed_back.append(rounds)
        return ctx.now, handed_back

    return main


def _network(net: str):
    """``"qdr"``, or QDR with outliers on 30 % of its ``REMOTE``
    messages behind a 2x2 torus (a fabric latency between any two
    nodes)."""
    network = infiniband_qdr()
    if net == "qdr":
        return network, None
    levels = dict(network.levels)
    levels[Level.REMOTE] = replace(levels[Level.REMOTE], outlier_prob=0.3)
    return replace(network, levels=levels), TorusFabric((2, 2))


def _simulation(nodes, rpn, seed, net, **hooks):
    if nodes * rpn < 2:
        nodes = 2
    network, fabric = _network(net)
    return Simulation(
        machine=small_machine(nodes, rpn), network=network, seed=seed,
        fabric=fabric, **hooks,
    )


def _run(nodes, rpn, seed, net, steps, fused, **hooks):
    result = _simulation(nodes, rpn, seed, net, **hooks).run(
        _program(steps, fused)
    )
    return result.engine_stats, result.values


steps = st.lists(
    st.tuples(
        st.sampled_from(["neighbours", "xor", "star"]),
        st.integers(min_value=0, max_value=7),
        st.one_of(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=30, max_value=40),
        ),
        st.sampled_from(list(ExchangeShape)),
        st.sampled_from([0.0, 1e-7, 2e-6]),
        st.booleans(),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 1e-4, 1e-3]),
        st.booleans(),
        st.sampled_from(["", "initiator", "responder"]),
        st.sampled_from(
            [(0, ""), (0, ""), (4, "both"), (48, "ping"), (48, "pong")]
        ),
    ),
    min_size=1, max_size=8,
)
shapes = dict(
    nodes=st.integers(min_value=1, max_value=4),
    rpn=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    net=st.sampled_from(["qdr", "outliers"]),
    steps=steps,
)


@settings(max_examples=40)
@given(loud=st.booleans(), **shapes)
def test_exchange_equals_the_written_out_loop(
    nodes, rpn, seed, net, steps, loud
):
    runs = []
    for fused in (True, False):
        hooks = {}
        if loud:
            hooks = dict(
                sink=RecordingSink(), check="strict",
                metrics=MetricsRegistry(), timeseries=TimeSeriesBank(),
            )
        stats, values = _run(nodes, rpn, seed, net, steps, fused, **hooks)
        runs.append((stats, values, _observed(**hooks)))
    fused, written_out = runs
    assert fused[0] == written_out[0]  # Engine.stats(), deferrals included
    assert fused[1] == written_out[1]  # final times, readings handed back
    assert fused[2] == written_out[2]  # events, metrics, series (if loud)


def _observed(sink=None, metrics=None, timeseries=None, **_):
    """What the hooks of a loud run recorded: the event stream, the
    metrics and the time series."""
    if sink is None:
        return None
    series = [(key, s.to_dict()) for key, s in timeseries.items()]
    return sink.events, metrics.snapshot(), series


@settings(max_examples=60)
@given(horizon=st.floats(min_value=1e-6, max_value=2e-3), **shapes)
def test_a_horizon_inside_the_run_stops_both_forms_alike(
    nodes, rpn, seed, net, steps, horizon
):
    """A rank that passes ``max_true_time`` raises the same error at the
    same point, inside the exchange loop or on the leg path: counters,
    every rank's time and the event stream up to the error agree."""
    runs = []
    for fused in (True, False):
        sink = RecordingSink()
        sim = _simulation(
            nodes, rpn, seed, net, sink=sink, max_true_time=horizon
        )
        try:
            outcome = sim.run(_program(steps, fused)).values
        except SimulationError as error:
            outcome = str(error)
        engine = sim.engine
        runs.append((
            outcome, engine.stats(),
            [engine.proc_now(rank) for rank in range(engine.num_ranks)],
            sink.events,
        ))
    assert runs[0] == runs[1]


@settings(max_examples=15)
@given(**shapes)
def test_a_byzantine_rank_tampers_with_every_leg(nodes, rpn, seed, net, steps):
    runs = []
    for fused in (True, False):
        injector = FaultInjector(FaultSchedule(name="liar", faults=[
            ByzantineClockAdversary(ranks=(1,), bias=1e-3, noise=1e-6),
        ]))
        runs.append((
            _run(nodes, rpn, seed, net, steps, fused, injector=injector),
            injector.payloads_perturbed,
        ))
    assert runs[0] == runs[1]
    # Every payload on the ping-pong tag is a float, so the liar touches
    # both legs of every round trip it takes part in, and each stray.
    size = max(2, nodes * rpn)
    legs = sum(
        2 * n * points + (stray and shape is not ExchangeShape.RENDEZVOUS)
        for pattern, k, n, shape, _, stray, points, *_ in steps
        for pair in _pairs(pattern, k, size) if 1 in pair
    )
    assert runs[0][1] == legs


@settings(max_examples=15)
@given(**shapes)
def test_span_edges_keep_their_waited_bits(nodes, rpn, seed, net, steps):
    edges = []
    for fused in (True, False):
        recorder = SpanRecorder()
        _run(nodes, rpn, seed, net, steps, fused, sink=recorder)
        edges.append([run.edges for run in recorder.runs])
    assert edges[0] == edges[1]
    assert any(edge.waited for run in edges[0] for edge in run.values())


def _zone_counts(prof: Profiler) -> dict[str, int]:
    counts: dict[str, int] = {}
    for path, zone in prof.walk():
        counts[path[-1]] = counts.get(path[-1], 0) + zone.count
    return {
        name: counts.get(name, 0)
        for name in ("engine.send", "net.delay", "clock.read", "obs.sink")
    }


@settings(max_examples=15)
@given(**shapes)
def test_profiled_zones_count_every_message_and_read(
    nodes, rpn, seed, net, steps
):
    runs = []
    for fused in (True, False):
        prof, sink = Profiler(), RecordingSink()
        stats, values = _run(
            nodes, rpn, seed, net, steps, fused, profiler=prof, sink=sink
        )
        runs.append((stats, values, _zone_counts(prof), sink.events))
    assert runs[0] == runs[1]
    stats, _, zones, _ = runs[0]
    assert zones["engine.send"] == stats["messages_sent"]


def _link_and_nic_storm():
    return FaultInjector(FaultSchedule(name="storm", faults=[
        LinkFault(start=0.0, length=1.0, level="REMOTE",
                  latency_factor=1.5, jitter=1e-7, outlier_prob=0.05,
                  outlier_scale=2e-6),
        NicStormFault(start=0.0, length=1.0, gap_factor=3.0),
    ]))


def _straggler():
    return FaultInjector(FaultSchedule(name="straggler", faults=[
        StragglerFault(start=0.0, length=1.0, slowdown=1.5, noise=2e-5),
    ]))


def _bottleneck():
    return FaultInjector(FaultSchedule(name="bottleneck", faults=[
        CongestionAdversary(service_time=1e-6, codel_target=5e-6,
                            codel_interval=1e-4),
    ]))


@settings(max_examples=15)
@given(
    make=st.sampled_from([_link_and_nic_storm, _straggler, _bottleneck]),
    **shapes,
)
def test_injectors_see_every_leg(nodes, rpn, seed, net, steps, make):
    """A stateless injector (link + NIC storm faults) prices the loop's
    legs through the same body, and a straggler stretches the pause
    between two points there as it stretches an ``ElapseCmd``; under a
    stateful one (a CoDel bottleneck) receives are ordered, the loop
    never starts and the leg path plays every point."""
    runs = []
    for fused in (True, False):
        injector = make()
        assert injector.stateful_delays == (make is _bottleneck)
        runs.append((
            _run(nodes, rpn, seed, net, steps, fused, injector=injector),
            injector.computes_perturbed,
        ))
    assert runs[0] == runs[1]
