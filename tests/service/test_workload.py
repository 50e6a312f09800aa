"""Tests for workload generation (repro.service.workload)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service.workload import (
    OP_COMPARE,
    OP_NOW,
    OP_TRANSLATE,
    BATCH_COST_BASE,
    BATCH_COST_PER_QUERY,
    BATCH_WINDOW,
    WorkloadSpec,
    generate,
    respond,
)


class TestBatchingModel:
    def test_respond_batches_by_window(self):
        times = np.array([0.1, 0.2, 0.9, 1.1, 2.5]) * BATCH_WINDOW
        done = respond(times)
        # Each query completes at its window's end plus its batch's cost:
        # the first window holds 3 queries, the second and third 1 each.
        windows = np.array([1, 1, 1, 2, 3])
        sizes = np.array([3, 3, 3, 1, 1])
        assert list(done) == list(
            windows * BATCH_WINDOW
            + BATCH_COST_BASE
            + BATCH_COST_PER_QUERY * sizes
        )
        assert done[0] == pytest.approx(
            BATCH_WINDOW + BATCH_COST_BASE + 3 * BATCH_COST_PER_QUERY
        )
        assert np.all(done > times)

    def test_empty_input(self):
        done = respond(np.empty(0))
        assert done.size == 0 and done.dtype == np.float64


class TestWorkloadSpec:
    def test_labels(self):
        assert WorkloadSpec(mode="open", rate=5000.0).label() == \
            "open[5000/s]"
        assert (
            WorkloadSpec(mode="closed", clients=10, think_time=2.0).label()
            == "closed[10c,2s]"
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mode="bursty")
        with pytest.raises(ConfigurationError):
            WorkloadSpec(duration=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mode="open", rate=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mode="closed", clients=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(ops_mix=(1.0, 1.0, 1.0))


class TestGenerate:
    def test_same_seed_is_bit_identical(self):
        spec = WorkloadSpec(mode="open", duration=5.0, rate=2000.0)
        a = generate(spec, 4, seed=11)
        b = generate(spec, 4, seed=11)
        for field in ("times", "ops", "ranks", "ranks2"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_open_loop_hits_the_requested_rate(self):
        spec = WorkloadSpec(mode="open", duration=20.0, rate=5000.0)
        stream = generate(spec, 4, seed=0)
        assert len(stream) == pytest.approx(100_000, rel=0.05)
        assert np.all(np.diff(stream.times) >= 0.0)
        assert stream.times[0] >= 0.0
        assert stream.times[-1] < spec.duration

    def test_closed_loop_respects_the_population(self):
        spec = WorkloadSpec(
            mode="closed", duration=10.0, clients=2000, think_time=2.0
        )
        stream = generate(spec, 4, seed=0)
        # ~ clients * duration / (think + latency) arrivals.
        assert len(stream) == pytest.approx(10_000, rel=0.25)
        assert np.all(np.diff(stream.times) >= 0.0)
        assert stream.times[-1] < spec.duration

    def test_ops_follow_the_mix(self):
        spec = WorkloadSpec(
            mode="open", duration=10.0, rate=5000.0,
            ops_mix=(0.5, 0.3, 0.2),
        )
        stream = generate(spec, 4, seed=1)
        fractions = np.bincount(stream.ops, minlength=3) / len(stream)
        assert fractions[OP_NOW] == pytest.approx(0.5, abs=0.02)
        assert fractions[OP_TRANSLATE] == pytest.approx(0.3, abs=0.02)
        assert fractions[OP_COMPARE] == pytest.approx(0.2, abs=0.02)

    def test_secondary_rank_is_always_distinct(self):
        spec = WorkloadSpec(mode="open", duration=5.0, rate=2000.0)
        for num_ranks in (2, 3, 8):
            stream = generate(spec, num_ranks, seed=2)
            assert np.all(stream.ranks != stream.ranks2)
            assert stream.ranks.max() < num_ranks
            assert stream.ranks2.max() < num_ranks

    def test_rejects_single_rank(self):
        with pytest.raises(ConfigurationError):
            generate(WorkloadSpec(), 1, seed=0)
