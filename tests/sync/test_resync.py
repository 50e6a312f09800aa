"""Tests for the periodic re-synchronization extension."""

import pytest

from repro.analysis.accuracy import ground_truth_accuracy
from repro.cluster.netmodels import infiniband_qdr
from repro.errors import SyncError
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync.hierarchical import h2hca
from repro.sync.resync import PeriodicResyncClock
from tests.conftest import run_spmd

#: Fast-drifting clocks so staleness matters within seconds.
TWITCHY = CLOCK_GETTIME.with_(skew_walk_sigma=1e-6)


def resync_main(max_age, waits, per_rank_state):
    def main(ctx, comm):
        resync = per_rank_state.setdefault(
            ctx.rank,
            PeriodicResyncClock(
                h2hca(nfitpoints=10, fitpoint_spacing=1e-4),
                max_model_age=max_age,
            ),
        )
        clocks = []
        for wait in waits:
            clock = yield from resync.ensure(comm, ctx)
            clocks.append(clock)
            yield from ctx.elapse(wait)
        return clocks, resync.resync_count

    return main


class TestPeriodicResync:
    def test_first_ensure_syncs(self):
        state = {}
        _, res = run_spmd(resync_main(10.0, [0.0], state),
                          network=infiniband_qdr(),
                          time_source=TWITCHY, seed=1)
        assert all(count == 1 for _, count in res.values)

    def test_fresh_model_not_resynced(self):
        state = {}
        _, res = run_spmd(resync_main(10.0, [1.0, 1.0, 1.0], state),
                          network=infiniband_qdr(),
                          time_source=TWITCHY, seed=2)
        assert all(count == 1 for _, count in res.values)

    def test_stale_model_resynced(self):
        state = {}
        _, res = run_spmd(resync_main(5.0, [6.0, 6.0, 0.0], state),
                          network=infiniband_qdr(),
                          time_source=TWITCHY, seed=3)
        # ensure #1 syncs; #2 (age 6 > 5) resyncs; #3 (age 6) resyncs.
        assert all(count == 3 for _, count in res.values)

    def test_all_ranks_agree_on_resync(self):
        state = {}
        _, res = run_spmd(resync_main(5.0, [6.0, 1.0, 6.0, 0.0], state),
                          network=infiniband_qdr(),
                          time_source=TWITCHY, seed=4)
        counts = {count for _, count in res.values}
        assert len(counts) == 1

    def test_accuracy_maintained_over_long_horizon(self):
        """The headline: with resync the error stays bounded; the
        original model degrades over the same horizon."""
        state = {}
        _, res = run_spmd(
            resync_main(8.0, [20.0, 20.0, 0.0], state),
            network=infiniband_qdr(), time_source=TWITCHY, seed=5,
            num_nodes=4, ranks_per_node=2,
        )
        # Final clocks (freshly resynced) vs the ORIGINAL first clocks,
        # both evaluated at the end of the run (~40 s in).
        t_eval = 41.0
        first = [v[0][0] for v in res.values]
        last = [v[0][-1] for v in res.values]
        err_original = ground_truth_accuracy(first, t_eval)
        err_resynced = ground_truth_accuracy(last, t_eval)
        assert err_resynced < err_original

    def test_resync_rounds_are_observable(self):
        from repro.context import run_context
        from repro.obs.events import RecordingSink, ResyncRound
        from repro.obs.metrics import MetricsRegistry

        state = {}
        sink = RecordingSink()
        registry = MetricsRegistry()
        with run_context(sink=sink, metrics=registry):
            _, res = run_spmd(resync_main(5.0, [6.0, 6.0, 0.0], state),
                              network=infiniband_qdr(),
                              time_source=TWITCHY, seed=3)
        counts = [count for _, count in res.values]
        events = sink.of_type(ResyncRound)
        # One event per rank per round, numbered 1..resync_count.
        assert len(events) == sum(counts)
        for rank, count in enumerate(counts):
            rounds = [e.round_index for e in events if e.rank == rank]
            assert rounds == list(range(1, count + 1))
        # Re-sync rounds (not the initial sync) report the model age on
        # EVERY rank — the age rides along with the broadcast decision.
        for rank in range(len(counts)):
            later = [e for e in events
                     if e.rank == rank and e.round_index >= 2]
            assert later and all(e.age >= 5.0 for e in later)
        assert registry.merged_counter("resync.rounds") == sum(counts)

    def test_validation(self):
        with pytest.raises(SyncError):
            PeriodicResyncClock(h2hca(nfitpoints=5), max_model_age=0.0)

    def test_label(self):
        resync = PeriodicResyncClock(h2hca(nfitpoints=5),
                                     max_model_age=10.0)
        assert resync.label().startswith("resync[10s]/Top/hca3")
