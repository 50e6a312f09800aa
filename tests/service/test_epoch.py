"""Tests for compiled model epochs (repro.service.epoch)."""

import numpy as np
import pytest

from repro.errors import SyncError
from repro.service.epoch import ModelEpoch, compile_epoch
from repro.simtime.drift import ConstantDrift, DriftModel, RandomWalkDrift
from repro.sync.linear_model import LinearDriftModel

MODELS = [
    LinearDriftModel.ZERO,
    LinearDriftModel(slope=2.5e-5, intercept=0.013),
    LinearDriftModel(slope=-1.1e-5, intercept=-0.4),
    LinearDriftModel(slope=8e-6, intercept=2.75),
]
DRIFTS = (
    ConstantDrift(0.0),
    ConstantDrift(2.5e-5),
    RandomWalkDrift(1e-5, sigma=1e-7, rng=np.random.default_rng(3)),
    1.5e-5,  # plain rate in s/s
)


class UnkeyedWalk(RandomWalkDrift):
    """A drift whose growth family is unknown (``growth_key() is None``)."""

    def growth_key(self):
        return None


def reference_bounds_for(ep, ranks, ages):
    """The masked per-rank loop ``bounds_for`` was before it grouped by
    drift family: the oracle the grouped version must equal bit for bit.
    """

    def growth(rank, at):
        drift = ep.drifts[rank]
        if isinstance(drift, DriftModel):
            return drift.error_growth_many(at)
        return abs(float(drift)) * np.clip(at, 0.0, None)

    ranks = np.asarray(ranks)
    ages = np.asarray(ages, dtype=np.float64)
    ref_growth = growth(ep.ref_rank, ages)
    bounds = np.zeros(ranks.shape, dtype=np.float64)
    for rank in np.unique(ranks):
        if rank == ep.ref_rank:
            continue
        mask = ranks == rank
        bounds[mask] = ep.base_error + ep._scale[rank] * (
            growth(int(rank), ages[mask]) + ref_growth[mask]
        )
    return bounds


def mixed_drifts(seed=0):
    """Ten ranks over six growth families, two of them shared."""

    def walk(cls, sigma, excursion=20e-6):
        return cls(
            1e-5, sigma=sigma, rng=np.random.default_rng(seed),
            max_excursion=excursion,
        )

    return (
        walk(RandomWalkDrift, 3e-7),
        walk(RandomWalkDrift, 1e-7, 5e-6),
        ConstantDrift(2.5e-5),
        1.5e-5,
        walk(RandomWalkDrift, 3e-7),   # same family as rank 0
        walk(UnkeyedWalk, 3e-7),       # same formula, but never grouped
        -1.5e-5,                       # same |rate| as rank 3
        ConstantDrift(-1e-6),          # same family as rank 2
        walk(UnkeyedWalk, 3e-7),
        4e-5,
    )


def mixed_epoch(ref_rank, seed=0):
    rng = np.random.default_rng(seed)
    drifts = mixed_drifts(seed)
    slopes = rng.uniform(-1e-4, 1e-4, len(drifts))
    slopes[ref_rank] = 0.0
    return ModelEpoch(
        generation=0, synced_at=10.0, slopes=slopes,
        intercepts=rng.uniform(-1.0, 1.0, len(drifts)),
        drifts=drifts, base_error=2e-7, ref_rank=ref_rank,
    )


def epoch(**kwargs):
    defaults = dict(
        generation=0, synced_at=10.0, models=MODELS, drifts=DRIFTS,
        base_error=2e-7, ref_rank=0,
    )
    defaults.update(kwargs)
    return compile_epoch(**defaults)


class TestCompile:
    def test_model_for_roundtrips_the_compiled_coefficients(self):
        ep = epoch()
        assert ep.num_ranks == 4
        for rank, model in enumerate(MODELS):
            assert ep.model_for(rank) == model

    def test_rejects_mismatched_drift_count(self):
        with pytest.raises(SyncError):
            epoch(drifts=DRIFTS[:2])

    def test_rejects_non_invertible_slope(self):
        bad = [LinearDriftModel(slope=1.0, intercept=0.0)] + MODELS[1:]
        with pytest.raises(SyncError):
            epoch(models=bad)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SyncError):
            ModelEpoch(
                generation=0, synced_at=0.0,
                slopes=np.zeros(3), intercepts=np.zeros(2),
                drifts=(0.0, 0.0, 0.0),
            )


class TestVectorizedEvaluation:
    def test_global_of_bit_identical_to_scalar_apply(self):
        ep = epoch()
        rng = np.random.default_rng(7)
        readings = rng.uniform(0.0, 1e5, 500)
        ranks = rng.integers(0, 4, 500)
        values = ep.global_of(ranks, readings)
        for i in range(500):
            scalar = ep.model_for(int(ranks[i])).apply(float(readings[i]))
            assert values[i] == scalar

    def test_local_of_bit_identical_to_scalar_apply_inverse(self):
        ep = epoch()
        rng = np.random.default_rng(8)
        reference = rng.uniform(0.0, 1e5, 500)
        ranks = rng.integers(0, 4, 500)
        values = ep.local_of(ranks, reference)
        for i in range(500):
            scalar = ep.model_for(int(ranks[i])).apply_inverse(
                float(reference[i])
            )
            assert values[i] == scalar


class TestBounds:
    def test_reference_rank_bound_is_zero(self):
        ep = epoch()
        bounds = ep.bounds_for(np.zeros(5, dtype=int), np.linspace(0, 60, 5))
        assert np.all(bounds == 0.0)

    def test_nonref_bound_starts_at_base_error_and_grows(self):
        ep = epoch()
        ranks = np.full(4, 1)
        ages = np.array([0.0, 5.0, 20.0, 60.0])
        bounds = ep.bounds_for(ranks, ages)
        assert bounds[0] == pytest.approx(ep.base_error)
        assert np.all(np.diff(bounds) >= 0.0)

    def test_float_rate_drift_grows_linearly(self):
        ep = epoch()
        age = 12.0
        (bound,) = ep.bounds_for(np.array([3]), np.array([age]))
        scale = 1.0 + abs(MODELS[3].slope)
        # Rank 3 uses the plain-rate path; the reference drift is a
        # ConstantDrift whose growth is identically zero.
        assert bound == pytest.approx(
            ep.base_error + scale * (abs(DRIFTS[3]) * age)
        )

    def test_max_bound_is_the_worst_rank(self):
        ep = epoch()
        age = 30.0
        per_rank = ep.bounds_for(
            np.arange(4), np.full(4, age)
        )
        assert ep.max_bound(age) == per_rank.max()


class TestGroupedBoundsEqualThePerRankLoop:
    def test_families_are_compiled_by_growth_key(self):
        ep = mixed_epoch(ref_rank=0)
        family = ep._family.tolist()
        assert family[4] == family[0]
        assert family[6] == family[3]
        assert family[7] == family[2]
        # Unkeyed drifts get a family each, whatever their parameters.
        assert len({family[0], family[5], family[8]}) == 3
        assert len(ep._family_drifts) == 7

    @pytest.mark.parametrize("ref_rank", [0, 1, 3, 5])
    def test_bit_identical_on_mixed_families(self, ref_rank):
        ep = mixed_epoch(ref_rank)
        rng = np.random.default_rng(ref_rank)
        # Rank 9 never queried; ages on both sides of the sync instant.
        ranks = rng.integers(0, 9, 4000)
        ages = rng.uniform(-5.0, 600.0, 4000)
        got = ep.bounds_for(ranks, ages)
        assert np.array_equal(got, reference_bounds_for(ep, ranks, ages))
        assert np.all(got[ranks == ref_rank] == 0.0)

    def test_bit_identical_when_one_family_serves_every_rank(self):
        # The service's own shape: every clock drawn from one spec.
        drifts = tuple(
            RandomWalkDrift(
                skew, sigma=3e-7, rng=np.random.default_rng(rank)
            )
            for rank, skew in enumerate((1e-5, -2e-5, 3e-6, 0.0))
        )
        ep = epoch(drifts=drifts, ref_rank=2)
        assert len(ep._family_drifts) == 1
        rng = np.random.default_rng(11)
        ranks = rng.integers(0, 4, 3000)
        ages = rng.uniform(-1.0, 100.0, 3000)
        assert np.array_equal(
            ep.bounds_for(ranks, ages), reference_bounds_for(ep, ranks, ages)
        )

    def test_each_family_is_evaluated_once_per_call(self, monkeypatch):
        calls = []
        real = RandomWalkDrift.error_growth_many

        def counting(self, ages):
            calls.append(self)
            return real(self, ages)

        monkeypatch.setattr(RandomWalkDrift, "error_growth_many", counting)
        ep = mixed_epoch(ref_rank=0)
        ep.bounds_for(np.array([0, 4, 4, 0, 4]), np.linspace(0, 9, 5))
        assert len(calls) == 1  # ranks 0 and 4 share the reference's array
        del calls[:]
        ep.bounds_for(np.arange(10), np.full(10, 30.0))
        # Reference family, the second walk, and the two unkeyed walks.
        assert len(calls) == 4

    def test_empty_batch(self):
        for ep in (epoch(), mixed_epoch(ref_rank=1)):
            out = ep.bounds_for(np.empty(0, dtype=int), np.empty(0))
            assert out.shape == (0,)
