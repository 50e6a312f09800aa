"""Property: an ``ExchangeCmd`` is the written-out ping-pong loop.

``ExchangeCmd`` promises the messages, events, clock reads, RNG draws and
causality-gate decisions of the ``read_clock``/``SendRecvCmd``/``RecvCmd``/
``SendCmd`` loops ``sync/offset.py`` used to spell out; only the generator
resumes between the legs are gone.  Those loops live on here as the
reference (``_written_out``).  Hypothesis draws programs of exchange steps
over the pairings the sync algorithms use (disjoint neighbours, hypercube
partners, JK's one reference serving every client in turn), with all three
leg shapes and staggered compute so ranks run ahead of one another, and
runs each program both ways: engine counters (``gate_deferrals`` and
``events_processed`` included), per-rank final times and the readings
handed back must match exactly, and under the strict sanitizer with a
recording sink the event streams must match too.

The engine plays most round trips in its exchange loop
(``Engine._play_exchange``), which hands back to the leg path when the
gate would defer a ping (exit A) or a pong (exit B) and when the last
pong is delivered (exit C).  So the drawn programs also stagger ranks
past one another's queue events, attach a profiler (the ``engine.send``,
``net.delay`` and ``clock.read`` zones count once per message or read
either way), run under stateless and stateful injectors, and may leave
a stray message from the reference on the ping-pong tag in the client's
mailbox, which the client's first receive leg must take instead of the
pong.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.netmodels import infiniband_qdr
from repro.faults import (
    ByzantineClockAdversary, CongestionAdversary, FaultInjector,
    FaultSchedule, LinkFault, NicStormFault,
)
from repro.obs import SpanRecorder
from repro.obs.events import RecordingSink
from repro.prof import Profiler
from repro.simmpi.engine import (
    ExchangeCmd,
    ExchangeShape,
    RecvCmd,
    SendCmd,
    SendRecvCmd,
)
from repro.sync.clocks import GlobalClockLM
from repro.sync.linear_model import LinearDriftModel
from repro.sync.offset import PINGPONG_TAG, TIMESTAMP_BYTES
from tests.conftest import run_spmd

#: HCA3's reference side reads through its global clock model.
REFERENCE_MODEL = LinearDriftModel(2e-6, 0.25)


def _written_out(ctx, peer, n, clock, shape, initiator):
    """The loops of ``sync/offset.py`` before ``ExchangeCmd``, as raw
    commands: SKaMPI (stamped), the RTT estimate (timed) and Mean-RTT
    (rendezvous), initiator and responder side of each."""
    tag, size = PINGPONG_TAG, TIMESTAMP_BYTES
    rounds = []
    if shape is ExchangeShape.RENDEZVOUS:
        for _ in range(n):
            if initiator:
                yield SendCmd(peer, tag, 0.0, size, synchronous=True)
                msg = yield RecvCmd(peer, tag)
                rounds.append((None, msg.payload, ctx.read_clock(clock)))
            else:
                yield RecvCmd(peer, tag)
                stamp = ctx.read_clock(clock)
                yield SendCmd(peer, tag, stamp, size, synchronous=True)
        return rounds if initiator else None
    stamped = shape is ExchangeShape.STAMPED
    for _ in range(n):
        if initiator:
            before = ctx.read_clock(clock)
            msg = yield SendRecvCmd(
                peer, tag, before if stamped else 0.0, size, peer, tag
            )
            rounds.append((before, msg.payload, ctx.read_clock(clock)))
        else:
            yield RecvCmd(peer, tag)
            stamp = ctx.read_clock(clock) if stamped else 0.0
            yield SendCmd(peer, tag, stamp, size)
    return rounds if initiator else None


def _pairs(pattern: str, k: int, size: int) -> list[tuple[int, int]]:
    """``(reference, client)`` pairs of one step, in serving order."""
    if pattern == "neighbours":
        return [(r, r + 1) for r in range(0, size - 1, 2)]
    if pattern == "xor":
        bit = 1 << (k % max(1, (size - 1).bit_length()))
        return [(r | bit, r) for r in range(size)
                if not r & bit and r | bit < size]
    return [(0, client) for client in range(1, size)]  # "star"


def _program(steps, fused: bool):
    def main(ctx, comm):
        handed_back = []
        for pattern, k, n, shape, stagger, stray in steps:
            yield from ctx.elapse(((comm.rank * 7 + k) % 5) * stagger)
            # A stray needs eager legs: behind it a rendezvous pong
            # would wait for a receive that the next ping blocks.
            stray = stray and shape is not ExchangeShape.RENDEZVOUS
            for ref, client in _pairs(pattern, k, comm.size):
                if comm.rank not in (ref, client):
                    continue
                initiator = comm.rank == client
                peer = ref if initiator else client
                clock = ctx.hardware_clock
                if not initiator:
                    clock = GlobalClockLM(clock, REFERENCE_MODEL)
                if stray and not initiator:
                    yield SendCmd(peer, PINGPONG_TAG, -1.0, TIMESTAMP_BYTES)
                if fused:
                    rounds = yield ExchangeCmd(
                        peer, PINGPONG_TAG, n, clock, shape, initiator,
                        TIMESTAMP_BYTES,
                    )
                else:
                    rounds = yield from _written_out(
                        ctx, peer, n, clock, shape, initiator
                    )
                if stray and initiator:
                    # The last pong, left over behind the stray.
                    yield RecvCmd(peer, PINGPONG_TAG)
                handed_back.append(rounds)
        return ctx.now, handed_back

    return main


def _run(nodes, rpn, seed, steps, fused, **hooks):
    if nodes * rpn < 2:
        nodes = 2
    _, result = run_spmd(
        _program(steps, fused), num_nodes=nodes, ranks_per_node=rpn,
        network=infiniband_qdr(), seed=seed, **hooks,
    )
    return result.engine_stats, result.values


steps = st.lists(
    st.tuples(
        st.sampled_from(["neighbours", "xor", "star"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(list(ExchangeShape)),
        st.sampled_from([0.0, 1e-7, 2e-6]),
        st.booleans(),
    ),
    min_size=1, max_size=8,
)
shapes = dict(
    nodes=st.integers(min_value=1, max_value=4),
    rpn=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    steps=steps,
)


@settings(max_examples=40)
@given(loud=st.booleans(), **shapes)
def test_exchange_equals_the_written_out_loop(nodes, rpn, seed, steps, loud):
    runs = []
    for fused in (True, False):
        sink = RecordingSink() if loud else None
        stats, values = _run(
            nodes, rpn, seed, steps, fused,
            sink=sink, check="strict" if loud else None,
        )
        runs.append((stats, values, sink.events if loud else None))
    fused, written_out = runs
    assert fused[0] == written_out[0]  # Engine.stats(), deferrals included
    assert fused[1] == written_out[1]  # final times, readings handed back
    assert fused[2] == written_out[2]  # event stream (None when quiet)


@settings(max_examples=15)
@given(**shapes)
def test_a_byzantine_rank_tampers_with_every_leg(nodes, rpn, seed, steps):
    runs = []
    for fused in (True, False):
        injector = FaultInjector(FaultSchedule(name="liar", faults=[
            ByzantineClockAdversary(ranks=(1,), bias=1e-3, noise=1e-6),
        ]))
        runs.append((
            _run(nodes, rpn, seed, steps, fused, injector=injector),
            injector.payloads_perturbed,
        ))
    assert runs[0] == runs[1]
    # Every payload on the ping-pong tag is a float, so the liar touches
    # both legs of every round trip it takes part in, and each stray.
    size = max(2, nodes * rpn)
    legs = sum(
        2 * n + (stray and shape is not ExchangeShape.RENDEZVOUS)
        for pattern, k, n, shape, _, stray in steps
        for pair in _pairs(pattern, k, size) if 1 in pair
    )
    assert runs[0][1] == legs


@settings(max_examples=15)
@given(**shapes)
def test_span_edges_keep_their_waited_bits(nodes, rpn, seed, steps):
    edges = []
    for fused in (True, False):
        recorder = SpanRecorder()
        _run(nodes, rpn, seed, steps, fused, sink=recorder)
        edges.append([run.edges for run in recorder.runs])
    assert edges[0] == edges[1]
    assert any(edge.waited for run in edges[0] for edge in run.values())


def _zone_counts(prof: Profiler) -> dict[str, int]:
    counts: dict[str, int] = {}
    for path, zone in prof.walk():
        counts[path[-1]] = counts.get(path[-1], 0) + zone.count
    return {
        name: counts.get(name, 0)
        for name in ("engine.send", "net.delay", "clock.read")
    }


@settings(max_examples=15)
@given(**shapes)
def test_profiled_zones_count_every_message_and_read(
    nodes, rpn, seed, steps
):
    runs = []
    for fused in (True, False):
        prof = Profiler()
        stats, values = _run(nodes, rpn, seed, steps, fused, profiler=prof)
        runs.append((stats, values, _zone_counts(prof)))
    assert runs[0] == runs[1]
    stats, _, zones = runs[0]
    assert zones["engine.send"] == stats["messages_sent"]


def _link_and_nic_storm():
    return FaultInjector(FaultSchedule(name="storm", faults=[
        LinkFault(start=0.0, length=1.0, level="REMOTE",
                  latency_factor=1.5, jitter=1e-7, outlier_prob=0.05,
                  outlier_scale=2e-6),
        NicStormFault(start=0.0, length=1.0, gap_factor=3.0),
    ]))


def _bottleneck():
    return FaultInjector(FaultSchedule(name="bottleneck", faults=[
        CongestionAdversary(service_time=1e-6, codel_target=5e-6,
                            codel_interval=1e-4),
    ]))


@settings(max_examples=15)
@given(make=st.sampled_from([_link_and_nic_storm, _bottleneck]), **shapes)
def test_injectors_see_every_leg(nodes, rpn, seed, steps, make):
    """A stateless injector (link + NIC storm faults) prices the loop's
    legs through the same body; under a stateful one (a CoDel
    bottleneck) receives are ordered and the loop never starts."""
    runs = []
    for fused in (True, False):
        injector = make()
        assert injector.stateful_delays == (make is _bottleneck)
        runs.append(_run(nodes, rpn, seed, steps, fused, injector=injector))
    assert runs[0] == runs[1]
