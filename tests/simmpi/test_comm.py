"""Unit tests for communicators: translation, tags, split."""

import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.errors import CommunicatorError
from repro.simmpi.comm import MAX_USER_TAG, Communicator, split_groups
from repro.simmpi.simulation import Simulation
from repro.sync.registry import algorithm_from_label
from tests.conftest import bruck_allgather, run_spmd, small_machine


class TestRankTranslation:
    def test_world_identity(self):
        def main(ctx, comm):
            yield from ()
            return (comm.rank, comm.global_rank(comm.rank))

        _, res = run_spmd(main, num_nodes=2, ranks_per_node=2)
        assert all(r == g for r, g in res.values)

    def test_out_of_range(self):
        def main(ctx, comm):
            yield from ()
            try:
                comm.global_rank(comm.size)
            except CommunicatorError:
                return "raised"
            return "no"

        _, res = run_spmd(main)
        assert all(v == "raised" for v in res.values)

    def test_nonmember_construction_rejected(self):
        def main(ctx, comm):
            yield from ()
            try:
                Communicator(ctx, [r for r in range(comm.size)
                                   if r != ctx.rank], comm_id=5)
            except CommunicatorError:
                return "raised"
            return "no"

        _, res = run_spmd(main)
        assert all(v == "raised" for v in res.values)


class TestTags:
    def test_user_tag_bounds(self):
        def main(ctx, comm):
            yield from ()
            try:
                comm._user_tag(MAX_USER_TAG)
            except CommunicatorError:
                return "raised"
            return "no"

        _, res = run_spmd(main)
        assert all(v == "raised" for v in res.values)

    def test_collective_tags_advance(self):
        def main(ctx, comm):
            yield from ()
            a = comm.next_collective_tag()
            b = comm.next_collective_tag()
            return b - a

        _, res = run_spmd(main)
        assert all(v == 1 for v in res.values)


class TestSplit:
    def test_split_by_parity(self):
        def main(ctx, comm):
            sub = yield from comm.split(color=comm.rank % 2)
            total = yield from sub.allreduce(1)
            return (sub.size, total, sub.rank)

        _, res = run_spmd(main, num_nodes=2, ranks_per_node=2)
        for size, total, _ in res.values:
            assert size == 2 and total == 2

    def test_split_none_color(self):
        def main(ctx, comm):
            color = 0 if comm.rank == 0 else None
            sub = yield from comm.split(color)
            return sub is None

        _, res = run_spmd(main, num_nodes=2, ranks_per_node=2)
        assert res.values[0] is False
        assert all(res.values[1:])

    def test_split_key_reorders(self):
        def main(ctx, comm):
            # Reverse the ordering within the new communicator.
            sub = yield from comm.split(color=0, key=-comm.rank)
            return sub.rank

        _, res = run_spmd(main, num_nodes=2, ranks_per_node=2)
        # world rank 3 gets key -3 -> lowest -> sub rank 0
        assert res.values == [3, 2, 1, 0]

    def test_split_type_shared(self):
        def main(ctx, comm):
            sub = yield from comm.split_type("shared")
            members = yield from sub.allgather(ctx.node)
            return (sub.size, set(members))

        _, res = run_spmd(main, num_nodes=3, ranks_per_node=2)
        for rank, (size, nodes) in enumerate(res.values):
            assert size == 2
            assert len(nodes) == 1

    def test_split_type_socket(self):
        def main(ctx, comm):
            sub = yield from comm.split_type("socket")
            keys = yield from sub.allgather((ctx.node, ctx.socket))
            return (sub.size, set(keys))

        _, res = run_spmd(main, num_nodes=2, ranks_per_node=4)
        for size, keys in res.values:
            assert len(keys) == 1

    def test_split_type_unknown(self):
        def main(ctx, comm):
            yield from ()
            try:
                gen = comm.split_type("bogus")
                # split_type raises before yielding anything
                next(gen)
            except CommunicatorError:
                return "raised"
            return "no"

        _, res = run_spmd(main)
        assert all(v == "raised" for v in res.values)

    def test_dup_preserves_group(self):
        def main(ctx, comm):
            dup = yield from comm.dup()
            same = [dup.global_rank(r) for r in range(dup.size)] == [
                comm.global_rank(r) for r in range(comm.size)
            ]
            return (same, dup.comm_id != comm.comm_id)

        _, res = run_spmd(main)
        assert all(a and b for a, b in res.values)

    def test_p2p_within_subcomm(self):
        def main(ctx, comm):
            sub = yield from comm.split(color=comm.rank % 2)
            if sub.rank == 0:
                yield from sub.send(1, 3, payload=f"from{comm.rank}")
                return None
            msg = yield from sub.recv(0, 3)
            return msg.payload

        _, res = run_spmd(main, num_nodes=2, ranks_per_node=2)
        assert res.values[2] == "from0"
        assert res.values[3] == "from1"


#: p -> (nodes, ranks per node): odd, even non-power-of-two and power-of-two
#: group sizes, with several ranks per node wherever p factors.
SPLIT_SHAPES = {
    1: (1, 1), 2: (1, 2), 3: (3, 1), 5: (5, 1), 6: (3, 2),
    7: (7, 1), 12: (3, 4), 16: (4, 4), 64: (16, 4),
}


def _log2_ceil(p):
    return (p - 1).bit_length()


def _split_everywhere(p, split):
    """Run ``split(ctx, comm)`` on p ranks; per world rank, the new
    communicator's ``(group, rank)`` (or None) plus placement."""
    nodes, rpn = SPLIT_SHAPES[p]

    def main(ctx, comm):
        sub = yield from split(ctx, comm)
        got = None if sub is None else (
            tuple(sub.global_rank(r) for r in range(sub.size)), sub.rank
        )
        return got, (ctx.node, ctx.socket)

    _, res = run_spmd(main, num_nodes=nodes, ranks_per_node=rpn)
    return res


def _expected(pairs, parent=None):
    """Reference grouping, one member at a time: the expression ``split``
    evaluated per member before the grouping was shared.  ``parent`` maps
    parent ranks to global ranks (default: the world, where they agree).
    """
    parent = range(len(pairs)) if parent is None else parent
    out = []
    for rank, (color, _) in enumerate(pairs):
        if color is None:
            out.append(None)
            continue
        members = sorted(
            (info[1], r) for r, info in enumerate(pairs) if info[0] == color
        )
        group = tuple(parent[r] for _, r in members)
        out.append((group, group.index(parent[rank])))
    return out


@pytest.mark.parametrize("p", sorted(SPLIT_SHAPES))
class TestSplitGroups:
    def test_split_by_color(self, p):
        res = _split_everywhere(
            p, lambda ctx, comm: comm.split(comm.rank % 3)
        )
        got = [value[0] for value in res.values]
        assert got == _expected([(r % 3, r) for r in range(p)])

    def test_split_none_color(self, p):
        res = _split_everywhere(
            p, lambda ctx, comm: comm.split(None if comm.rank % 2 else 0)
        )
        got = [value[0] for value in res.values]
        assert got == _expected(
            [(None if r % 2 else 0, r) for r in range(p)]
        )

    def test_split_key_reverses(self, p):
        res = _split_everywhere(
            p, lambda ctx, comm: comm.split(comm.rank % 2, key=-comm.rank)
        )
        got = [value[0] for value in res.values]
        assert got == _expected([(r % 2, -r) for r in range(p)])

    @pytest.mark.parametrize("kind", ["shared", "socket"])
    def test_split_type(self, p, kind):
        res = _split_everywhere(
            p, lambda ctx, comm: comm.split_type(kind)
        )
        width = 1 if kind == "shared" else 2
        places = [value[1][:width] for value in res.values]
        got = [value[0] for value in res.values]
        assert got == _expected([(places[r], r) for r in range(p)])

    def test_one_split_sends_p_log_p_messages(self, p):
        res = _split_everywhere(
            p, lambda ctx, comm: comm.split(comm.rank % 2)
        )
        assert res.engine_stats["messages_sent"] == p * _log2_ceil(p)
        # Every member consumed the shared grouping: nothing left behind.
        assert res.engine_stats["messages_unreceived"] == 0


def _wire(p, collective):
    """Every message of ``collective(comm)`` on p ranks, in send order:
    ``(source, dest, tag, size)`` and the payload, read off ``_do_send``."""
    sim = Simulation(machine=small_machine(*SPLIT_SHAPES[p]),
                     network=ideal_network(), seed=0)
    original = sim.engine._do_send
    sent = []

    def recording_send(self, proc, cmd, level):
        sent.append(((proc.rank, cmd.dest, cmd.tag, cmd.size), cmd.payload))
        original(proc, cmd, level)

    sim.engine._do_send = types.MethodType(recording_send, sim.engine)

    def main(ctx, comm):
        yield from collective(comm)

    sim.run(main)
    return sent


@pytest.mark.parametrize("p", sorted(SPLIT_SHAPES))
def test_split_moves_sizes_not_blocks(p):
    """The split's messages are the Bruck allgather's, block-free."""
    split = _wire(p, lambda comm: comm.split(comm.rank % 3))
    gather = _wire(p, lambda comm: bruck_allgather(
        comm, (comm.rank % 3, comm.rank), 16
    ))
    assert all(payload is None for _, payload in split)
    assert [wire for wire, _ in split] == [wire for wire, _ in gather]
    assert len(split) == p * _log2_ceil(p)


class TestSplitArguments:
    """A bad colour or key fails on the rank that passed it, before any
    message, as a CommunicatorError naming that rank."""

    @pytest.mark.parametrize("color, key, match", [
        ([0], None, "colour \\[0\\] is not hashable"),
        (0, "a", "key 'a' is not an integer"),
        (0, 1.0, "key 1.0 is not an integer"),
    ], ids=["unhashable-colour", "str-key", "float-key"])
    def test_rejected_on_entry(self, color, key, match):
        def main(ctx, comm):
            yield from ()
            try:
                next(comm.split(color, key))
            except CommunicatorError as exc:
                return str(exc)
            return "no"

        _, res = run_spmd(main)
        for rank, text in enumerate(res.values):
            assert text.startswith(f"rank {rank}: ")
            assert re.search(match, text)

    def test_one_bad_rank_is_the_one_that_raises(self):
        def main(ctx, comm):
            color = [0] if comm.rank == 2 else 0
            yield from comm.split(color)

        with pytest.raises(CommunicatorError, match="^rank 2: "):
            run_spmd(main, num_nodes=2, ranks_per_node=2)

    def test_integer_like_key_is_accepted(self):
        def main(ctx, comm):
            sub = yield from comm.split(0, key=np.int64(-comm.rank))
            return sub.rank

        _, res = run_spmd(main)
        assert res.values == [3, 2, 1, 0]

    def test_unset_slot_is_refused(self):
        with pytest.raises(CommunicatorError, match="parent rank 1"):
            split_groups([(0, 0), None, (0, 2)], [0, 1, 2])


class TestSplitCost:
    def test_split_memo_is_emptied(self):
        def main(ctx, comm):
            yield from comm.split(comm.rank % 2)
            sub = yield from comm.split_type("shared")
            yield from sub.split(0)

        sim, _ = run_spmd(main, num_nodes=3, ranks_per_node=2)
        assert sim.engine.split_memo == {}

    def test_h2hca_sync_is_logarithmic_in_messages(self):
        """64x4 ranks: communicator creation must not dominate the sync
        (a linear-step split alone would send 2 * p * (p - 1))."""
        algorithm = algorithm_from_label(
            "Top/hca3/8/skampi_offset/4/Bottom/ClockPropagation",
            fitpoint_spacing=1e-3,
        )
        p = 256

        def main(ctx, comm):
            yield from algorithm.sync_clocks(comm, ctx.hardware_clock)

        _, res = run_spmd(
            main, num_nodes=64, ranks_per_node=4, network=infiniband_qdr()
        )
        assert res.engine_stats["messages_sent"] < 6 * p * _log2_ceil(p)

    def test_split_host_memory_is_linear(self):
        """tracemalloc peak per rank of a node split plus a leader split
        at 128x4 (p=512).  Members that each held the p gathered pairs
        read 9.3 KiB/rank; the shared table with block-free messages and
        packed delay pools reads 3.7 KiB/rank."""
        sim = Simulation(machine=small_machine(128, 4),
                         network=ideal_network(), seed=0)

        def main(ctx, comm):
            node = yield from comm.split_type("shared")
            yield from comm.split(0 if node.rank == 0 else None)

        tracemalloc.start()
        try:
            sim.run(main)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 512 < 6 * 1024


colors = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=3),
    st.tuples(
        st.just("socket"),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
    ),
)


class TestSplitGroupsProperty:
    @given(
        pairs=st.lists(
            st.tuples(colors, st.integers(min_value=-5, max_value=5)),
            min_size=1, max_size=40,
        ),
        stride=st.integers(min_value=1, max_value=7),
    )
    def test_shared_table_equals_per_member_computation(self, pairs, stride):
        # A sub-communicator's parent ranks: any increasing global ranks.
        parent = [3 + stride * r for r in range(len(pairs))]
        groups, positions = split_groups(pairs, parent)
        got = [
            None if color is None else (groups[color], positions[rank])
            for rank, (color, _) in enumerate(pairs)
        ]
        assert got == _expected(pairs, parent)
        assert None not in groups
