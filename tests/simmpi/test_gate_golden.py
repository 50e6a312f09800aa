"""The simulated time line, message by message, pinned against older engines.

The other goldens pin summaries (figure tables, reports, critical paths).
This one pins the raw thing for a change to *when in host order* the
engine runs a rank: per rank the final true time and the return value,
and per message ``(source, dest, tag, send_time, arrival, delivered)``
with times as ``repr`` strings, ordered by source and per-source send
order.  Message ``seq`` numbers are host-order facts and are not compared.

``golden/gate_timelines.json`` holds programs recorded on two engines:

* the first 13, ``flat_hca3_skampi_16x4`` to
  ``late_rendezvous_congested_4x2``, at commit
  ``5c9792f550939e883d8e369c231baa03d7d40bec``, where every command went
  through the causality gate and every delivery wake through the event
  queue;
* the last three, ``local_other_tag_2x4``, ``local_remote_race_2x2`` and
  ``ssend_chain_2x4``, at commit
  ``f7e67c56b9b3263fcc5fc2efe058a2bd8dd9c3c2``, where every send went
  through the gate, also one to a node-local receiver already waiting
  for it.

An engine that gates only the order-sensitive commands, runs a woken rank
from its ready list and hands a node-local send straight to its waiting
receiver must reproduce the file byte for byte.

Re-record (only when simulated behaviour is *meant* to change), all
programs or the named ones only::

    PYTHONPATH=src python -m tests.simmpi.test_gate_golden --record [NAME ...]
"""

from __future__ import annotations

import ast
import json
import operator
import sys
from pathlib import Path

import pytest

from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.cluster.topology import Machine
from repro.faults import FaultSchedule, NicStormFault, StragglerFault
from repro.faults.scenarios import congested_fabric
from repro.obs.events import MsgDeliver, MsgSend, RecordingSink
from repro.simmpi.message import ANY_SOURCE, ANY_TAG
from repro.simmpi.simulation import Simulation
from repro.sync import flatten_clock
from repro.sync.registry import algorithm_from_label

GOLDEN = Path(__file__).parent / "golden" / "gate_timelines.json"


# ----------------------------------------------------------------------
# Rank programs
# ----------------------------------------------------------------------
def _sync(label):
    algorithm = algorithm_from_label(label, fitpoint_spacing=1e-3)

    def main(ctx, comm):
        clock = yield from algorithm.sync_clocks(comm, ctx.hardware_clock)
        return flatten_clock(clock)

    return main


def fan_out_fan_in(ctx, comm):
    """Rank 0 hands out work linearly and collects with ANY_SOURCE."""
    p = ctx.nprocs
    if ctx.rank == 0:
        order = []
        for round_ in range(3):
            for dest in range(1, p):
                yield from ctx.send(dest, 10 + round_, round_, size=64)
            for _ in range(1, p):
                msg = yield from ctx.recv(ANY_SOURCE, ANY_TAG)
                order.append((msg.source, msg.tag))
        return order
    total = 0
    for round_ in range(3):
        msg = yield from ctx.recv(0, 10 + round_)
        yield from ctx.elapse(float(ctx.rng.uniform(0.0, 20e-6)))
        total += msg.payload
        yield from ctx.send(0, 20 + ctx.rank % 3, ctx.rank, size=32)
    return total


def ssend_chain(ctx, comm):
    """A token travels down the ranks and back on synchronous sends."""
    rank, p = ctx.rank, ctx.nprocs
    seen = []
    for lap in range(4):
        if rank:
            msg = yield from ctx.recv(rank - 1, 1)
            seen.append(msg.payload)
        if rank + 1 < p:
            yield from ctx.ssend(rank + 1, 1, (lap, rank))
            msg = yield from ctx.recv(rank + 1, 2)
            seen.append(msg.payload)
        if rank:
            yield from ctx.ssend(rank - 1, 2, (lap, -rank))
    return seen


def staggered_ring(ctx, comm):
    """Ranks start at different times, then pass values round a ring."""
    rank, p = ctx.rank, ctx.nprocs
    if rank % 2:
        yield from ctx.elapse(rank * 7e-6)
    else:
        yield from ctx.wait_until_true((p - rank) * 5e-6)
    value = rank
    for step in range(6):
        msg = yield from ctx.sendrecv(
            (rank + 1) % p, 3, value, source=(rank - 1) % p, recv_tag=3
        )
        value = msg.payload
        if (rank + step) % 3 == 0:
            yield from ctx.elapse(float(ctx.rng.uniform(0.0, 5e-6)))
    return value


def any_source_ring(ctx, comm):
    """A fused exchange whose receive half is an ANY_SOURCE receive."""
    rank, p = ctx.rank, ctx.nprocs
    got = []
    for step in range(1, 5):
        yield from ctx.elapse(((rank * step) % 5) * 1e-6)
        msg = yield from ctx.sendrecv(
            (rank + step) % p, 4, rank, source=ANY_SOURCE, recv_tag=4
        )
        got.append(msg.source)
        yield from comm.barrier()
    return got


def incast(ctx, comm):
    """Every rank fires bursts at rank 0: the NIC ingress table decides."""
    rank, p = ctx.rank, ctx.nprocs
    if rank == 0:
        sources = []
        for _ in range(5 * (p - 1)):
            msg = yield from ctx.recv(ANY_SOURCE, 5)
            sources.append(msg.source)
        return sources
    for burst in range(5):
        yield from ctx.send(0, 5, burst, size=256)
        yield from ctx.elapse(float(ctx.rng.uniform(1e-6, 3e-6)))
    return None


def compute_and_reduce(ctx, comm):
    """Compute phases (stragglers act here) between collectives."""
    total = 0
    for step in range(4):
        yield from ctx.elapse(50e-6)
        total = yield from comm.allreduce(
            ctx.rank + step + total, op=operator.add
        )
        yield from comm.barrier()
    out = yield from comm.bcast(total, root=1)
    return out


def tied_fan_in(ctx, comm):
    """A deterministic network: equal times everywhere, ties decide."""
    rank, p = ctx.rank, ctx.nprocs
    if rank == 0:
        order = []
        for tag in (6, 7):
            for _ in range(p - 1):
                msg = yield from ctx.recv(ANY_SOURCE, tag)
                order.append(msg.source)
        yield from comm.barrier()
        return order
    yield from ctx.send(0, 6, rank)
    yield from ctx.elapse(1e-6)
    yield from ctx.send(0, 7, rank)
    yield from comm.barrier()
    return None


def late_rendezvous(ctx, comm):
    """A rendezvous whose receiver runs far ahead of everyone else.

    The receive completes the rendezvous, so it prices an ack; under a
    congestion adversary that pricing goes through a bottleneck queue the
    ring traffic of the other ranks shares, and must not reach it early.
    """
    rank, p = ctx.rank, ctx.nprocs
    if rank == 0:
        yield from ctx.ssend(2, 8, "late")
        return ctx.now
    if rank == 2:
        yield from ctx.elapse(400e-6)
        msg = yield from ctx.recv(0, 8)
        return msg.payload
    ring = [r for r in range(p) if r not in (0, 2)]
    i = ring.index(rank)
    value = rank
    for _ in range(12):
        msg = yield from ctx.sendrecv(
            ring[(i + 1) % len(ring)], 9, value,
            source=ring[i - 1], recv_tag=9,
        )
        value = msg.payload
        yield from ctx.elapse(10e-6)
    return value


def local_other_tag(ctx, comm):
    """Node-local pairs whose receiver first waits on the later tag.

    The sender's tag-1 message finds its receiver blocked on tag 2, so it
    lands in the mailbox; the tag-2 message wakes the receiver, which then
    takes tag 1 from there.  A ring through both nodes keeps remote
    traffic pending between the rounds.
    """
    rank, p = ctx.rank, ctx.nprocs
    peer = rank ^ 1
    got = []
    for round_ in range(4):
        if rank % 2 == 0:
            late = yield from ctx.recv(peer, 2)
            early = yield from ctx.recv(peer, 1)
            got.append((late.payload, early.payload))
        else:
            yield from ctx.elapse(float(ctx.rng.uniform(0.0, 4e-6)))
            yield from ctx.send(peer, 1, round_)
            yield from ctx.elapse(float(ctx.rng.uniform(0.0, 4e-6)))
            yield from ctx.send(peer, 2, -round_)
        msg = yield from ctx.sendrecv(
            (rank + 3) % p, 3, rank, source=(rank - 3) % p, recv_tag=3
        )
        got.append(msg.payload)
    return got


def local_remote_race(ctx, comm):
    """A node-local and a remote sender race into an ANY_SOURCE receive.

    Rank 1 shares rank 0's node, rank 2 does not; rank 3 feeds rank 2
    node-local messages on its own schedule.
    """
    rank = ctx.rank
    if rank == 0:
        order = []
        for round_ in range(8):
            for _ in range(2):
                msg = yield from ctx.recv(ANY_SOURCE, 5)
                order.append(msg.source)
            for source in (1, 2):
                yield from ctx.send(source, 6, round_)
        return order
    if rank == 3:
        for round_ in range(8):
            yield from ctx.elapse(float(ctx.rng.uniform(0.5e-6, 4e-6)))
            yield from ctx.send(2, 7, round_)
        return None
    for round_ in range(8):
        yield from ctx.elapse(float(ctx.rng.uniform(0.0, 10e-6)))
        yield from ctx.send(0, 5, rank)
        yield from ctx.recv(0, 6)
        if rank == 2:
            yield from ctx.recv(3, 7)
    return ctx.now


def _machine(nodes, ranks_per_node):
    return Machine(nodes, 1, ranks_per_node, ranks_per_node)


#: name -> (program, machine, network, seed, disturbance): a fault
#: schedule, an adversarial scenario, or None.
PROGRAMS = {
    "flat_hca3_skampi_16x4": (
        _sync("hca3/recompute_intercept/4/skampi_offset/3"),
        _machine(16, 4), infiniband_qdr, 1, None,
    ),
    "flat_hca3_mean_rtt_16x4": (
        _sync("hca3/recompute_intercept/4/mean_rtt_offset/3"),
        _machine(16, 4), infiniband_qdr, 2, None,
    ),
    "h2hca_8x4": (
        _sync("Top/hca3/4/skampi_offset/3/Bottom/ClockPropagation"),
        _machine(8, 4), infiniband_qdr, 3, None,
    ),
    "jk_8x4": (
        _sync("jk/4/skampi_offset/3"),
        _machine(8, 4), infiniband_qdr, 4, None,
    ),
    "fan_out_fan_in_4x2": (
        fan_out_fan_in, _machine(4, 2), infiniband_qdr, 5, None,
    ),
    "ssend_chain_3x2": (
        ssend_chain, _machine(3, 2), infiniband_qdr, 6, None,
    ),
    "staggered_ring_4x2": (
        staggered_ring, _machine(4, 2), infiniband_qdr, 7, None,
    ),
    "any_source_ring_4x2": (
        any_source_ring, _machine(4, 2), infiniband_qdr, 8, None,
    ),
    "incast_nic_storm_6x2": (
        incast, _machine(6, 2), infiniband_qdr, 9,
        FaultSchedule("storm", [
            NicStormFault(start=3e-6, length=15e-6, node=0, gap_factor=6.0),
        ]),
    ),
    "compute_and_reduce_straggler_4x4": (
        compute_and_reduce, _machine(4, 4), infiniband_qdr, 10,
        FaultSchedule("straggler", [
            StragglerFault(
                start=40e-6, length=200e-6, node=2, slowdown=1.5, noise=5e-6
            ),
        ]),
    ),
    "tied_fan_in_ideal_5x1": (
        tied_fan_in, _machine(5, 1), ideal_network, 11, None,
    ),
    "flat_hca3_mean_rtt_congested_8x2": (
        _sync("hca3/recompute_intercept/4/mean_rtt_offset/3"),
        _machine(8, 2), infiniband_qdr, 12, congested_fabric(),
    ),
    "late_rendezvous_congested_4x2": (
        late_rendezvous, _machine(4, 2), infiniband_qdr, 13,
        congested_fabric(),
    ),
    "local_other_tag_2x4": (
        local_other_tag, _machine(2, 4), infiniband_qdr, 14, None,
    ),
    "local_remote_race_2x2": (
        local_remote_race, _machine(2, 2), infiniband_qdr, 15, None,
    ),
    "ssend_chain_2x4": (
        ssend_chain, _machine(2, 4), infiniband_qdr, 16, None,
    ),
}


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def timeline(name: str) -> dict:
    main, machine, network, seed, disturbance = PROGRAMS[name]
    sink = RecordingSink()
    sim = Simulation(
        machine=machine, network=network(), seed=seed, sink=sink,
        faults=disturbance,
    )
    result = sim.run(main)
    delivered = {
        e.seq: e for e in sink.events if type(e) is MsgDeliver
    }
    by_source: dict[int, list] = {}
    for e in sink.events:
        if type(e) is not MsgSend:
            continue
        d = delivered.get(e.seq)
        by_source.setdefault(e.rank, []).append([
            e.rank, e.dest, e.tag, repr(e.time),
            repr(d.arrival) if d is not None else None,
            repr(d.time) if d is not None else None,
        ])
    return {
        "ranks": [
            [repr(sim.engine.proc_now(rank)), repr(value)]
            for rank, value in enumerate(result.values)
        ],
        "messages": [
            row for source in sorted(by_source) for row in by_source[source]
        ],
    }


def render(obj, indent: int = 0) -> str:
    """JSON with one line per rank and per message (diffable, compact)."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = [
            f"{pad} {json.dumps(key)}: {render(value, indent + 1).lstrip()}"
            for key, value in obj.items()
        ]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list) and obj and isinstance(obj[0], list):
        items = [f"{pad} {json.dumps(row)}" for row in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return pad + json.dumps(obj)


def record(names: list[str]) -> str:
    """The golden file with ``names`` (all programs if empty) re-run and
    every other entry kept as it is."""
    kept = json.loads(GOLDEN.read_text(encoding="utf-8")) if names else {}
    unknown = set(names) - set(PROGRAMS)
    if unknown:
        raise SystemExit(f"unknown programs: {sorted(unknown)}")
    return render({
        name: timeline(name) if not names or name in names else kept[name]
        for name in PROGRAMS
    }) + "\n"


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_text() -> str:
    return GOLDEN.read_text(encoding="utf-8")


def test_golden_file_is_what_render_writes(golden_text):
    """The file parses, names every program and round-trips bytewise."""
    data = json.loads(golden_text)
    assert list(data) == list(PROGRAMS)
    assert render(data) + "\n" == golden_text


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_time_line_reproduced(name, golden_text):
    expected = json.loads(golden_text)[name]
    got = timeline(name)
    assert got["ranks"] == expected["ranks"]
    assert got["messages"] == expected["messages"]
    # Byte for byte, not merely equal after parsing.
    assert render(got) == render(expected)


def test_programs_exercise_what_they_claim():
    """Guards against a golden that pins nothing interesting."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(data["flat_hca3_skampi_16x4"]["ranks"]) == 64
    # ANY_SOURCE receives saw more than one interleaving of sources.
    order = ast.literal_eval(data["fan_out_fan_in_4x2"]["ranks"][0][1])
    assert [s for s, _ in order[:7]] != sorted(s for s, _ in order[:7])
    # The node-local sender won some races and the remote one others.
    race = ast.literal_eval(data["local_remote_race_2x2"]["ranks"][0][1])
    assert {tuple(race[i:i + 2]) for i in range(0, len(race), 2)} == {
        (1, 2), (2, 1)
    }
    # Undelivered messages would show as nulls; these programs have none.
    for name, entry in data.items():
        assert all(row[4] is not None for row in entry["messages"]), name


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit(
            "usage: python -m tests.simmpi.test_gate_golden --record [NAME ...]"
        )
    GOLDEN.parent.mkdir(exist_ok=True)
    text = record(sys.argv[2:])
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN}")
