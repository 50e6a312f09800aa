"""Property tests for the clock service's caching contract.

The service's two cache layers promise exactness, not approximation:

* within one sync generation, a memoized (cached) ``translate`` answer
  is **bit-identical** to the uncached scalar model arithmetic and to
  the vectorized batch path;
* a resync bumps the generation and must drop both caches — no answer
  computed against the old models may ever be served afterwards.

The serving path's two batch shortcuts promise the same exactness:
staleness bounds grouped by drift family equal the per-rank loop they
replaced, and clock readings taken once over a stream equal the readings
of any partition of it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.core import ClockService
from repro.service.driver import _reads
from repro.service.epoch import ModelEpoch
from repro.simtime.drift import ConstantDrift, RandomWalkDrift
from repro.simtime.sources import CLOCK_GETTIME, GETTIMEOFDAY, make_node_clocks
from repro.sync.linear_model import LinearDriftModel
from tests.service.test_epoch import UnkeyedWalk, reference_bounds_for

slopes = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)
intercepts = st.floats(min_value=-1e2, max_value=1e2, allow_nan=False)
readings = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
ages = st.floats(min_value=0.0, max_value=600.0, allow_nan=False)
rates = st.floats(min_value=0.0, max_value=1e-4, allow_nan=False)


def models(n):
    return st.lists(
        st.builds(LinearDriftModel, slope=slopes, intercept=intercepts),
        min_size=n, max_size=n,
    )


class Provider:
    def __init__(self, model_sets, drifts):
        self._sets = list(model_sets)
        self._drifts = tuple(drifts)
        self.generation = 0
        self.synced_at = 0.0
        self.base_error = 1e-7
        self.ref_rank = 0

    def models(self):
        return [LinearDriftModel.ZERO] + self._sets[self.generation]

    def drifts(self):
        return self._drifts

    def resync(self):
        self.generation += 1
        self.synced_at += 1.0


class TestCachedTranslate:
    @given(ms=models(2), t=readings, age=ages, r1=rates, r2=rates)
    @settings(max_examples=100, deadline=None)
    def test_cached_answer_bit_identical_to_uncached(
        self, ms, t, age, r1, r2
    ):
        provider = Provider([ms], (0.0, r1, r2))
        service = ClockService(provider, slo=25e-6)
        at = provider.synced_at + age

        uncached = service.translate(t, 1, 2, at)
        cached = service.translate(t, 1, 2, at)
        assert cached is uncached  # second call served from the memo

        # Both equal the raw model arithmetic, bit for bit.
        expected = ms[1].apply_inverse(ms[0].apply(t))
        assert uncached.value == expected

        # And the vectorized path agrees element-exactly.
        values, bounds, _ = service.translate_batch(
            np.array([t]), np.array([1]), np.array([2]), np.array([at])
        )
        assert values[0] == uncached.value
        assert bounds[0] == uncached.error_bound

    @given(
        sets=st.tuples(models(2), models(2)),
        t=readings, age=ages, r1=rates, r2=rates,
    )
    @settings(max_examples=100, deadline=None)
    def test_memo_never_serves_across_a_resync(
        self, sets, t, age, r1, r2
    ):
        provider = Provider(list(sets), (0.0, r1, r2))
        service = ClockService(provider, slo=25e-6)
        at = provider.synced_at + age

        before = service.translate(t, 1, 2, at)
        provider.resync()
        after = service.translate(t, 1, 2, at)

        assert before.generation == 0
        assert after.generation == 1
        assert service.stats.memo_hits == 0
        # The post-resync answer comes from the NEW models, exactly.
        new = sets[1]
        assert after.value == new[1].apply_inverse(new[0].apply(t))


def _walk(cls, sigma, excursion):
    return cls(
        0.0, sigma=sigma, rng=np.random.default_rng(0),
        max_excursion=excursion,
    )


#: Drift entries over few enough distinct parameters that drawn epochs
#: share families often: two walk parameter sets, an unkeyed walk,
#: constant drifts, and plain rates of either sign.
drift_entries = st.one_of(
    st.sampled_from([
        ("walk", 3e-7, 20e-6), ("walk", 1e-7, 5e-6), ("unkeyed", 3e-7, 20e-6),
    ]).map(lambda k: _walk(
        UnkeyedWalk if k[0] == "unkeyed" else RandomWalkDrift, k[1], k[2]
    )),
    st.sampled_from([0.0, 1e-5]).map(ConstantDrift),
    st.sampled_from([1.5e-5, -1.5e-5, 4e-5, 0.0]),
)


class TestGroupedBounds:
    @given(data=st.data(), num_ranks=st.integers(min_value=2, max_value=9))
    @settings(max_examples=150, deadline=None)
    def test_grouped_bounds_equal_the_per_rank_loop(self, data, num_ranks):
        drifts = data.draw(st.lists(
            drift_entries, min_size=num_ranks, max_size=num_ranks
        ))
        ref_rank = data.draw(st.integers(0, num_ranks - 1))
        epoch = ModelEpoch(
            generation=0, synced_at=0.0,
            slopes=np.array(data.draw(st.lists(
                slopes, min_size=num_ranks, max_size=num_ranks
            ))),
            intercepts=np.zeros(num_ranks),
            drifts=tuple(drifts), base_error=1e-7, ref_rank=ref_rank,
        )
        # Any subset of ranks may be absent from the batch.
        present = data.draw(st.lists(
            st.integers(0, num_ranks - 1), min_size=1, max_size=num_ranks
        ))
        batch = data.draw(st.lists(
            st.tuples(
                st.sampled_from(present),
                st.floats(min_value=-10.0, max_value=600.0),
            ),
            max_size=40,
        ))
        ranks = np.array([r for r, _ in batch], dtype=np.int64)
        at = np.array([a for _, a in batch], dtype=np.float64)
        assert np.array_equal(
            epoch.bounds_for(ranks, at),
            reference_bounds_for(epoch, ranks, at),
        )


class TestReadsOncePerStream:
    @given(
        seed=st.integers(0, 2**16),
        spec=st.sampled_from([CLOCK_GETTIME, GETTIMEOFDAY]),
        raw=st.booleans(),
        cuts=st.lists(st.integers(0, 200), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_slices_of_one_read_equal_reads_of_the_slices(
        self, seed, spec, raw, cuts
    ):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 40.0, 200))
        ranks = rng.integers(0, 4, 200)
        # Fresh clocks on each side: segments materialize lazily, and
        # neither the order nor the grouping of reads may matter.
        whole = _reads(make_node_clocks(4, spec, seed), ranks, times, raw=raw)
        clocks = make_node_clocks(4, spec, seed)
        edges = sorted({0, 200, *cuts})
        for a, b in zip(edges, edges[1:]):
            part = _reads(clocks, ranks[a:b], times[a:b], raw=raw)
            assert np.array_equal(part, whole[a:b])
