"""Property: a fused exchange is bit-identical to the send/recv pair.

``SendRecvCmd`` promises the results of a ``SendCmd`` followed by a
``RecvCmd`` (same RNG draws, same causality-gate decisions), and every
collective now exchanges through ``Communicator.sendrecv_raw``.
Hypothesis draws exchange programs over the three peer patterns the
collectives use (ring neighbours, XOR partners, Bruck distances), with
staggered compute between steps so ranks run ahead of one another, and
runs each program both ways: engine counters (``gate_deferrals``
included), per-rank final times and the payloads in arrival order must
match exactly, on the quiet path and under the strict sanitizer with a
recording sink, where the event streams must match too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.netmodels import infiniband_qdr
from repro.obs.events import RecordingSink
from tests.conftest import run_spmd


def _peers(kind: str, k: int, rank: int, size: int):
    """(dest, source) of one step, or None when ``rank`` sits it out."""
    if kind == "ring":
        return (rank + 1) % size, (rank - 1) % size
    if kind == "xor":
        partner = rank ^ (1 << (k % max(1, (size - 1).bit_length())))
        return (partner, partner) if partner < size else None
    dist = 1 + k % (size - 1)
    return (rank - dist) % size, (rank + dist) % size


def _program(steps, fused: bool):
    def main(ctx, comm):
        tag = comm.next_collective_tag()
        received = []
        for kind, k, nbytes, stagger in steps:
            peers = _peers(kind, k, comm.rank, comm.size)
            if peers is None:
                continue
            dest, source = peers
            yield from ctx.elapse(((comm.rank * 7 + k) % 5) * stagger)
            payload = (comm.rank, len(received))
            if fused:
                msg = yield from comm.sendrecv_raw(
                    dest, tag, payload, nbytes, source=source
                )
            else:
                yield from comm.send_raw(dest, tag, payload, nbytes)
                msg = yield from comm.recv_raw(source, tag)
            received.append(msg.payload)
        return ctx.now, received

    return main


def _run(nodes, rpn, seed, steps, fused, loud):
    sink = RecordingSink() if loud else None
    _, result = run_spmd(
        _program(steps, fused), num_nodes=nodes, ranks_per_node=rpn,
        network=infiniband_qdr(), seed=seed,
        sink=sink, check="strict" if loud else None,
    )
    events = sink.events if loud else None
    return result.engine_stats, result.values, events


steps = st.lists(
    st.tuples(
        st.sampled_from(["ring", "xor", "bruck"]),
        st.integers(min_value=0, max_value=7),
        st.sampled_from([0, 1, 8, 16, 1024, 65536]),
        st.sampled_from([0.0, 1e-7, 2e-6]),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=40)
@given(
    nodes=st.integers(min_value=1, max_value=4),
    rpn=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    steps=steps,
    loud=st.booleans(),
)
def test_sendrecv_raw_equals_send_raw_then_recv_raw(
    nodes, rpn, seed, steps, loud
):
    if nodes * rpn < 2:
        nodes = 2
    fused = _run(nodes, rpn, seed, steps, True, loud)
    unfused = _run(nodes, rpn, seed, steps, False, loud)
    assert fused[0] == unfused[0]  # Engine.stats(), gate_deferrals included
    assert fused[1] == unfused[1]  # final times, payload order
    assert fused[2] == unfused[2]  # event stream (None on the quiet path)
