"""Tests for the ClockService (repro.service.core)."""

import numpy as np
import pytest

from repro.service.core import ClockService, ModelProvider
from repro.simtime.drift import ConstantDrift, RandomWalkDrift
from repro.sync.linear_model import LinearDriftModel


class StubProvider:
    """Hand-rolled ModelProvider with an explicit resync knob."""

    def __init__(self):
        self.generation = 0
        self.synced_at = 5.0
        self.base_error = 1e-7
        self.ref_rank = 0
        self._models = [
            LinearDriftModel.ZERO,
            LinearDriftModel(slope=2e-5, intercept=0.01),
            LinearDriftModel(slope=-3e-5, intercept=-0.2),
        ]
        self._drifts = (
            ConstantDrift(0.0),
            RandomWalkDrift(1e-5, sigma=1e-7, rng=np.random.default_rng(1)),
            RandomWalkDrift(-2e-5, sigma=2e-7, rng=np.random.default_rng(2)),
        )

    def models(self):
        return self._models

    def drifts(self):
        return self._drifts

    def resync(self, synced_at):
        self.generation += 1
        self.synced_at = synced_at
        self._models = [
            LinearDriftModel.ZERO,
            LinearDriftModel(slope=2.1e-5, intercept=0.011),
            LinearDriftModel(slope=-2.9e-5, intercept=-0.21),
        ]


@pytest.fixture
def provider():
    return StubProvider()


@pytest.fixture
def service(provider):
    return ClockService(provider, slo=25e-6)


class TestScalarQueries:
    def test_provider_protocol(self, provider):
        assert isinstance(provider, ModelProvider)

    def test_now_applies_the_rank_model(self, service, provider):
        resp = service.now(1, reading=100.0, at=6.0)
        assert resp.value == provider.models()[1].apply(100.0)
        assert resp.generation == 0
        assert resp.error_bound > 0.0

    def test_reference_rank_now_has_zero_bound(self, service):
        resp = service.now(0, reading=100.0, at=50.0)
        assert resp.error_bound == 0.0
        assert not resp.stale

    def test_translate_chains_apply_and_inverse(self, service, provider):
        resp = service.translate(100.0, src_rank=1, dst_rank=2, at=6.0)
        ref = provider.models()[1].apply(100.0)
        assert resp.value == provider.models()[2].apply_inverse(ref)

    def test_compare_subtracts_global_times(self, service, provider):
        resp = service.compare((1, 100.0), (2, 100.0), at=6.0)
        expected = (
            provider.models()[1].apply(100.0)
            - provider.models()[2].apply(100.0)
        )
        assert resp.value == expected

    def test_stale_flag_tracks_the_slo(self, service):
        fresh = service.now(1, reading=10.0, at=5.0)
        old = service.now(1, reading=10.0, at=5000.0)
        assert not fresh.stale
        assert old.stale
        assert old.error_bound > fresh.error_bound

    def test_rejects_nonpositive_slo(self, provider):
        with pytest.raises(ValueError):
            ClockService(provider, slo=0.0)


class TestEpochCache:
    def test_one_miss_per_generation(self, service, provider):
        for _ in range(5):
            service.now(1, reading=1.0, at=6.0)
        assert service.stats.epoch_misses == 1
        provider.resync(synced_at=8.0)
        service.now(1, reading=1.0, at=9.0)
        assert service.stats.epoch_misses == 2

    def test_no_answer_is_served_across_a_resync(self, service, provider):
        before = service.now(1, reading=42.0, at=6.0)
        provider.resync(synced_at=8.0)
        after = service.now(1, reading=42.0, at=6.0)
        assert after.generation == 1
        assert after.value == provider.models()[1].apply(42.0)
        assert after.value != before.value

    def test_epoch_call_counts_the_compile_not_a_query(self, service):
        service.epoch()
        assert service.stats.epoch_misses == 1
        assert service.stats.queries == 0
        service.now(1, reading=1.0, at=6.0)
        assert service.stats.epoch_misses == 1
        assert service.stats.epoch_hits == 1

    def test_hit_ratio_and_stale_rate(self, service):
        for i in range(4):
            service.now(1, reading=float(i), at=6.0)
        stats = service.stats
        assert stats.queries == 4
        assert stats.epoch_hits + stats.epoch_misses == 4
        assert stats.cache_hit_ratio() == pytest.approx(3 / 4)
        assert stats.stale_rate() == 0.0
        assert stats.by_op == {"now": 4}


class TestBatchAPI:
    def test_now_batch_bit_identical_to_scalar(self, service):
        rng = np.random.default_rng(0)
        ranks = rng.integers(0, 3, 64)
        readings = rng.uniform(0.0, 1e4, 64)
        at = rng.uniform(5.0, 50.0, 64)
        values, bounds, stale = service.now_batch(ranks, readings, at)
        for i in range(64):
            resp = service.now(
                int(ranks[i]), float(readings[i]), float(at[i])
            )
            assert resp.value == values[i]
            assert resp.error_bound == bounds[i]
            assert resp.stale == stale[i]

    def test_translate_batch_bit_identical_to_scalar(self, service):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 3, 32)
        dst = (src + 1) % 3
        readings = rng.uniform(0.0, 1e4, 32)
        at = np.full(32, 6.0)
        values, bounds, _ = service.translate_batch(readings, src, dst, at)
        for i in range(32):
            resp = service.translate(
                float(readings[i]), int(src[i]), int(dst[i]), 6.0
            )
            assert resp.value == values[i]
            assert resp.error_bound == bounds[i]

    def test_compare_batch_bit_identical_to_scalar(self, service):
        rng = np.random.default_rng(2)
        ra = rng.integers(0, 3, 32)
        rb = (ra + 1) % 3
        ta = rng.uniform(0.0, 1e4, 32)
        tb = rng.uniform(0.0, 1e4, 32)
        at = np.full(32, 6.0)
        values, bounds, _ = service.compare_batch(ra, ta, rb, tb, at)
        for i in range(32):
            resp = service.compare(
                (int(ra[i]), float(ta[i])), (int(rb[i]), float(tb[i])), 6.0
            )
            assert resp.value == values[i]
            assert resp.error_bound == bounds[i]

    def test_batch_counts_queries_and_stale(self, service):
        ranks = np.array([1, 1, 2])
        readings = np.array([1.0, 2.0, 3.0])
        at = np.array([6.0, 5000.0, 6.0])
        _, _, stale = service.now_batch(ranks, readings, at)
        assert service.stats.queries == 3
        assert service.stats.stale_served == int(stale.sum()) == 1
