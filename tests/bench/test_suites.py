"""Tests for the benchmark-suite emulations."""

import pytest

from repro.bench.estimate import estimate_latency
from repro.bench.suites import barrier_report, reprompi_report
from repro.cluster.netmodels import infiniband_qdr
from repro.simtime.sources import CLOCK_GETTIME
from repro.sync.hierarchical import h2hca
from tests.conftest import run_spmd

QUIET = CLOCK_GETTIME.with_(skew_walk_sigma=1e-9)


def allreduce_op(comm):
    yield from comm.allreduce(1.0, size=8)


class TestEstimate:
    def test_every_rank_gets_same_estimate(self):
        def main(ctx, comm):
            est = yield from estimate_latency(comm, allreduce_op, nreps=5)
            return est

        _, res = run_spmd(main, network=infiniband_qdr(),
                          time_source=QUIET)
        assert len(set(res.values)) == 1
        assert 0 < res.values[0] < 1e-3


class TestBarrierSuites:
    @pytest.mark.parametrize("name", ["OSU", "IMB"])
    def test_root_gets_report(self, name):
        def main(ctx, comm):
            rep = yield from barrier_report(comm, allreduce_op, name,
                                            nreps=20)
            return rep

        _, res = run_spmd(main, network=infiniband_qdr(),
                          time_source=QUIET)
        rep = res.values[0]
        assert rep.suite == name
        assert rep.t_min <= rep.latency <= rep.t_max
        assert rep.nvalid == 20
        assert all(v is None for v in res.values[1:])


class TestReproMPI:
    def _run(self, scheme, seed=0):
        def main(ctx, comm):
            alg = main.algs.setdefault(
                ctx.rank, h2hca(nfitpoints=10, fitpoint_spacing=1e-3)
            )
            g_clk = yield from alg.sync_clocks(comm, ctx.hardware_clock)
            rep = yield from reprompi_report(
                comm, allreduce_op, lambda c: g_clk,
                max_time_slice=1.0, max_nrep=20, scheme=scheme,
            )
            return rep

        main.algs = {}
        _, res = run_spmd(main, network=infiniband_qdr(),
                          time_source=QUIET, seed=seed)
        return res.values

    def test_round_time_scheme(self):
        values = self._run("round_time")
        rep = values[0]
        assert rep.suite == "ReproMPI"
        assert rep.nvalid > 0
        assert rep.t_min <= rep.latency <= rep.t_max

    def test_barrier_scheme(self):
        values = self._run("barrier")
        rep = values[0]
        assert rep.nvalid > 0

    def test_unknown_scheme(self):
        def main(ctx, comm):
            try:
                yield from reprompi_report(
                    comm, allreduce_op, lambda c: ctx.hardware_clock,
                    scheme="bogus",
                )
            except ValueError:
                return "raised"
            return "no"

        _, res = run_spmd(main, network=infiniband_qdr(),
                          time_source=QUIET)
        assert all(v == "raised" for v in res.values)


class TestRunner:
    def test_run_latency_benchmark_cells(self):
        from repro.bench.runner import run_latency_benchmark
        from repro.cluster.machines import JUPITER

        measurements = run_latency_benchmark(
            machine=JUPITER.machine(2, 2),
            network=JUPITER.network(),
            suites=["osu", "reprompi"],
            msizes=[8, 64],
            sync_algorithm=h2hca(nfitpoints=8, fitpoint_spacing=1e-3),
            nreps=10,
            max_time_slice=0.5,
            time_source=QUIET,
        )
        assert len(measurements) == 4
        keys = {(m.suite, m.msize) for m in measurements}
        assert keys == {("osu", 8), ("osu", 64), ("reprompi", 8),
                        ("reprompi", 64)}
        for m in measurements:
            assert m.report.latency > 0

    def test_reprompi_requires_sync_algorithm(self):
        from repro.bench.runner import run_latency_benchmark
        from repro.cluster.machines import JUPITER

        with pytest.raises(ValueError):
            run_latency_benchmark(
                machine=JUPITER.machine(2, 1),
                network=JUPITER.network(),
                suites=["reprompi"],
                msizes=[8],
                sync_algorithm=None,
                time_source=QUIET,
            )

