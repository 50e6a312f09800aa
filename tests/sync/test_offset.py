"""Unit tests for the clock-offset algorithms (SKaMPI, Mean-RTT)."""

import gc

import numpy as np
import pytest

from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.errors import SyncError
from repro.prof import Profiler
from repro.sync import HCA3Sync, JKSync
from repro.sync.offset import ClockOffset, MeanRTTOffset, SKaMPIOffset
from tests.conftest import PERFECT_TIME, run_spmd


def measure_with(alg_factory, offset_scale=500e-6, seed=0, network=None,
                 pair=(0, 1)):
    """Run one offset measurement between ranks pair=(ref, client)."""
    spec = PERFECT_TIME.with_(offset_scale=offset_scale, name="t")

    def main(ctx, comm):
        alg = main.algs.setdefault(ctx.rank, alg_factory())
        if comm.rank in pair:
            result = yield from alg.measure_offset(
                comm, ctx.hardware_clock, pair[0], pair[1]
            )
            return result
        return None

    main.algs = {}
    sim, res = run_spmd(
        main,
        num_nodes=2,
        ranks_per_node=1,
        network=network or ideal_network(latency=2e-6),
        time_source=spec,
        seed=seed,
    )
    return sim, res


class TestSKaMPIOffset:
    def test_client_returns_offset_ref_returns_none(self):
        sim, res = measure_with(lambda: SKaMPIOffset(10))
        assert res.values[0] is None
        assert isinstance(res.values[1], ClockOffset)

    def test_estimates_true_offset(self):
        sim, res = measure_with(lambda: SKaMPIOffset(10), seed=3)
        measured = res.values[1].offset
        truth = sim.clocks[1].read_raw(0.0) - sim.clocks[0].read_raw(0.0)
        # Jitter-free network: the estimate is essentially exact.
        assert measured == pytest.approx(truth, abs=1e-7)

    def test_error_bounded_by_half_rtt_with_jitter(self, jitter_network):
        errors = []
        for seed in range(5):
            sim, res = measure_with(
                lambda: SKaMPIOffset(20), seed=seed, network=jitter_network
            )
            truth = sim.clocks[1].read_raw(0.0) - sim.clocks[0].read_raw(0.0)
            errors.append(abs(res.values[1].offset - truth))
        # Half of a ~4 us RTT is a very loose bound; min-filtering does
        # much better in practice.
        assert max(errors) < 2e-6

    def test_timestamp_is_recent_client_reading(self):
        sim, res = measure_with(lambda: SKaMPIOffset(5))
        ts = res.values[1].timestamp
        client_clock = sim.clocks[1]
        # Timestamp must correspond to some recent true time (>= 0).
        assert ts >= client_clock.read_raw(0.0)

    def test_wrong_rank_raises(self):
        def main(ctx, comm):
            alg = SKaMPIOffset(2)
            if comm.rank == 2:
                try:
                    yield from alg.measure_offset(
                        comm, ctx.hardware_clock, 0, 1
                    )
                except SyncError:
                    return "raised"
            elif comm.rank in (0, 1):
                yield from alg.measure_offset(comm, ctx.hardware_clock, 0, 1)
            return None

        _, res = run_spmd(main, num_nodes=3, ranks_per_node=1,
                          network=ideal_network(), time_source=PERFECT_TIME)
        assert res.values[2] == "raised"

    def test_rejects_zero_exchanges(self):
        with pytest.raises(SyncError):
            SKaMPIOffset(0)

    def test_label(self):
        assert SKaMPIOffset(25).label() == "skampi_offset/25"


class TestMeanRTTOffset:
    def test_estimates_true_offset(self):
        sim, res = measure_with(lambda: MeanRTTOffset(10), seed=1)
        measured = res.values[1].offset
        truth = sim.clocks[1].read_raw(0.0) - sim.clocks[0].read_raw(0.0)
        assert measured == pytest.approx(truth, abs=1e-6)

    def test_rtt_cached_per_pair(self):
        spec = PERFECT_TIME.with_(offset_scale=1e-4)

        def main(ctx, comm):
            alg = MeanRTTOffset(4, rtt_pingpongs=6)
            if comm.rank in (0, 1):
                yield from alg.measure_offset(comm, ctx.hardware_clock, 0, 1)
                before = dict(comm.attrs[alg])
                yield from alg.measure_offset(comm, ctx.hardware_clock, 0, 1)
                return (before, comm.attrs[alg])
            return None

        _, res = run_spmd(main, num_nodes=2, ranks_per_node=1,
                          network=ideal_network(), time_source=spec)
        before, after = res.values[1]
        assert list(before) == [(0, 1)] and before[(0, 1)] > 0.0
        assert after == before

    def test_reused_instance_keeps_no_state_between_simulations(self):
        # The RTT cache used to live on the instance under id(engine):
        # one entry per pair per simulation for the life of the
        # instance, and an id recycled after a finished engine was freed
        # could serve a dead run's RTT.  gc stays off so nothing is
        # reclaimed (or recycled) behind the test's back.
        shared = MeanRTTOffset(4, rtt_pingpongs=6)
        pristine = {"nexchanges": 4, "rtt_pingpongs": 6}
        gc.disable()
        try:
            for latency in (2e-6, 40e-6, 2e-6, 9e-6):
                network = ideal_network(latency=latency)
                _, reused = measure_with(lambda: shared, network=network)
                _, fresh = measure_with(
                    lambda: MeanRTTOffset(4, rtt_pingpongs=6), network=network
                )
                assert reused.values[1] == fresh.values[1]
                assert reused.values[1].rtt == pytest.approx(
                    2 * latency, rel=0.2
                )
                assert vars(shared) == pristine
        finally:
            gc.enable()

    def test_validation(self):
        with pytest.raises(SyncError):
            MeanRTTOffset(5, rtt_pingpongs=0)

    def test_skampi_beats_mean_rtt_under_jitter(self, jitter_network):
        """The paper's observation: min-filtering beats averaging."""
        sk_err, mr_err = [], []
        for seed in range(8):
            sim, res = measure_with(lambda: SKaMPIOffset(15), seed=seed,
                                    network=jitter_network)
            truth = sim.clocks[1].read_raw(0.0) - sim.clocks[0].read_raw(0.0)
            sk_err.append(abs(res.values[1].offset - truth))
            sim, res = measure_with(lambda: MeanRTTOffset(15), seed=seed,
                                    network=jitter_network)
            truth = sim.clocks[1].read_raw(0.0) - sim.clocks[0].read_raw(0.0)
            mr_err.append(abs(res.values[1].offset - truth))
        assert np.mean(sk_err) < np.mean(mr_err)


class TestOneCommandPerMeasurement:
    """At most one generator resume per side and measurement, whatever n
    is; SKaMPI takes a whole learn round's in one.

    Counts, not a stopwatch: with F fit points, R = 1 for
    ``recompute_intercept`` and n exchanges, a pair used to resume its two
    rank programs ``3·n·(F+R) + (F−1)`` times (a ``sendrecv`` per round
    trip on the client, a ``recv`` and a ``send`` on the reference, plus
    the fit-point spacing).  Mean-RTT, one ``ExchangeCmd`` per side and
    measurement, resumes them ``2·(F+R) + (F−1)`` times plus 2 for the
    cached RTT phase.  SKaMPI, one ``ExchangeCmd`` per side for the F fit
    points with their spacing and one for the intercept, resumes them
    ``2·(1+R)`` times.  Clock reads and offset rounds are what they were
    before the command existed.
    """

    P, F, N, RTT = 16, 5, 3, 10

    @staticmethod
    def _count(prof, zone):
        return sum(z.count for path, z in prof.walk() if path[-1] == zone)

    @pytest.mark.parametrize("recompute", [False, True])
    @pytest.mark.parametrize("offset_cls", [SKaMPIOffset, MeanRTTOffset])
    @pytest.mark.parametrize("sync_cls", [HCA3Sync, JKSync])
    def test_counts(self, sync_cls, offset_cls, recompute):
        alg = sync_cls(
            offset_cls(self.N), nfitpoints=self.F,
            recompute_intercept=recompute, fitpoint_spacing=1e-3,
        )

        def main(ctx, comm):
            yield from alg.sync_clocks(comm, ctx.hardware_clock)

        prof = Profiler()
        run_spmd(main, num_nodes=4, ranks_per_node=4,
                 network=infiniband_qdr(), profiler=prof)
        pairs = self.P - 1
        measurements = self.F + recompute
        mean_rtt = offset_cls is MeanRTTOffset
        if mean_rtt:
            per_pair = 2 * measurements + (self.F - 1)
            per_pair += 2  # the cached RTT phase: one command per side
        else:
            per_pair = 2 * (1 + recompute)  # one command per learn round
        if sync_cls is JKSync:
            per_pair += 2  # the go-ahead message: one send, one recv
        # One resume starts each rank, one follows each command.
        assert self._count(prof, "proc.advance") == self.P + pairs * per_pair
        assert self._count(prof, "sync.offset.rounds") == pairs * measurements
        if mean_rtt:
            # RTT phase: the client reads around each ping-pong, the
            # reference not at all; then one read per side per exchange.
            reads = 2 * self.RTT + measurements * 2 * self.N
        else:
            # Client: before and after each round trip, plus the final
            # timestamp; reference: one stamp per pong.
            reads = measurements * (3 * self.N + 1)
        assert self._count(prof, "clock.read") == pairs * reads
