"""Metrics primitives, registry aggregation, and engine integration."""

import math

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_summary,
)
from repro.context import current_context, run_context
from tests.conftest import run_spmd


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge_tracks_extremes(self):
        g = Gauge()
        for v in (3.0, -1.0, 2.0):
            g.set(v)
        assert g.value == 2.0
        assert g.max_value == 3.0
        assert g.min_value == -1.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.mean == 50.5
        assert h.min_value == 1.0
        assert h.max_value == 100.0
        assert h.quantile(0.5) == 50.5  # interpolated midpoint
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.0) == 1.0

    def test_histogram_sample_buffer_bounded(self):
        h = Histogram(max_samples=10)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000
        assert len(h._samples) == 10
        assert h.max_value == 999.0

    def test_histogram_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.total == 4.0
        assert a.max_value == 3.0

    def test_histogram_reservoir_is_unbiased_across_merge(self):
        # Regression: merge used to keep only the head of the other
        # buffer, so a full receiver ignored the other side entirely and
        # quantiles favored first-worker samples.  With the reservoir,
        # late samples must be represented after a merge.
        a, b = Histogram(max_samples=50), Histogram(max_samples=50)
        for v in range(100):
            a.observe(float(v))  # 0..99
        for v in range(100, 200):
            b.observe(float(v))  # 100..199
        a.merge(b)
        assert a.count == 200
        assert len(a._samples) == 50
        assert any(v >= 100.0 for v in a._samples)
        assert a.quantile(0.5) > 50.0

    def test_histogram_reservoir_deterministic(self):
        def build():
            h = Histogram(max_samples=16)
            for v in range(500):
                h.observe(float(v % 37))
            return h

        assert build()._samples == build()._samples

    def test_gauge_set_count_protects_merge(self):
        # Regression: a worker gauge that was created but never set
        # (value 0.0) used to clobber the parent's last-set value.
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.gauge("g").set(7.0)
        worker.gauge("g")  # created, never set
        parent.merge_from(worker)
        assert parent.gauge("g").value == 7.0
        assert parent.gauge("g").set_count == 1
        worker.gauge("g").set(0.0)  # a *real* zero must win
        parent.merge_from(worker)
        assert parent.gauge("g").value == 0.0
        assert parent.gauge("g").set_count == 2


class _CountingRng:
    """Delegates to a histogram's RNG, counting every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._rng.random()

    def randrange(self, n):
        self.draws += 1
        return self._rng.randrange(n)


def _looped(values, cap):
    hist = Histogram(max_samples=cap)
    for v in values:
        hist.observe(v)
    return hist


def _state(hist):
    return (hist._samples, hist.count, hist.min_value, hist.max_value)


class TestReservoirSkipSampling:
    """Algorithm L: draws only at kept indices, so batches == loops."""

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    @pytest.mark.parametrize(
        "chunks",
        [
            [50_000],                      # n >> k in one batch
            [10, 53, 1, 1, 935, 49_000],   # fill completes on a chunk edge
            [63, 2, 0, 49_935],            # ... and inside a chunk; an empty one
            [7] * 7_142 + [6],             # many small batches past the fill
        ],
    )
    def test_observe_many_equals_observe_loop(self, chunks, as_array):
        values = np.random.default_rng(3).normal(size=sum(chunks))
        reference = _looped(values.tolist(), cap=64)
        hist = Histogram(max_samples=64)
        start = 0
        total = 0.0
        for size in chunks:
            chunk = values[start:start + size]
            hist.observe_many(chunk if as_array else chunk.tolist())
            total += math.fsum(chunk)  # exact per batch, as before
            start += size
        assert _state(hist) == _state(reference)
        assert all(type(v) is float for v in hist._samples)
        assert hist.total == total

    def test_observe_many_then_observe_continues_the_same_stream(self):
        values = [float(v) for v in range(5_000)]
        hist = Histogram(max_samples=32)
        hist.observe_many(values[:1_000])
        for v in values[1_000:3_000]:
            hist.observe(v)
        hist.observe_many(np.array(values[3_000:]))
        assert _state(hist) == _state(_looped(values, cap=32))

    @pytest.mark.parametrize("empty", [[], (), np.empty(0)])
    def test_observe_many_of_nothing_changes_nothing(self, empty):
        hist = Histogram()
        hist.observe_many(empty)
        assert hist.count == 0 and hist._samples == []
        assert hist.quantile(0.5) == 0.0

    def test_retained_positions_are_uniform(self):
        # Observe each value's own position: the buffer then shows
        # which indices of the stream were kept.  Seeded, so the counts
        # are fixed numbers and the tolerance (4 binomial sigmas of
        # sqrt(4096 * 0.1 * 0.9) = 19.2) is not a flaky one.
        n, k = 400_000, 4096
        hist = Histogram(max_samples=k)
        hist.observe_many(np.arange(n, dtype=np.float64))
        assert len(set(hist._samples)) == k
        per_bin, _ = np.histogram(hist._samples, bins=10, range=(0, n))
        assert per_bin.sum() == k
        assert np.abs(per_bin - k / 10).max() < 77

    def test_cost_is_draws_per_kept_value_not_per_value(self):
        n, k = 1_000_000, 4096
        hist = Histogram(max_samples=k)
        rng = hist._rng = _CountingRng(hist._rng)
        hist.observe_many(np.random.default_rng(0).random(n))
        assert hist.count == n and len(hist._samples) == k
        # Per-value sampling (Algorithm R) makes n - k draws here.
        assert 0 < rng.draws <= 4 * k * (1 + math.log(n / k))

    def test_scalar_observe_draws_only_at_kept_indices(self):
        hist = Histogram(max_samples=16)
        rng = hist._rng = _CountingRng(hist._rng)
        for v in range(20_000):
            hist.observe(float(v))
        assert rng.draws <= 4 * 16 * (1 + math.log(20_000 / 16))

    def test_quantiles_is_quantile_with_one_sort(self):
        hist = _looped([float(v % 101) for v in range(10_000)], cap=256)
        qs = (0.0, 0.5, 0.99, 0.999, 1.0)
        assert hist.quantiles(qs) == [hist.quantile(q) for q in qs]
        assert Histogram().quantiles(qs) == [0.0] * len(qs)

    def test_rejects_an_empty_reservoir(self):
        with pytest.raises(ValueError):
            Histogram(max_samples=0)


class TestRegistry:
    def test_create_on_first_use_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", rank=1) is not reg.counter("x", rank=2)

    def test_merged_counter_folds_ranks(self):
        reg = MetricsRegistry()
        reg.counter("bytes", rank=0).inc(10)
        reg.counter("bytes", rank=1).inc(20)
        reg.counter("bytes").inc(5)
        assert reg.merged_counter("bytes") == 35
        assert reg.ranks_of("bytes") == [0, 1]

    def test_merged_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("lat", rank=0).observe(1.0)
        reg.histogram("lat", rank=1).observe(5.0)
        merged = reg.merged_histogram("lat")
        assert merged.count == 2
        assert merged.max_value == 5.0

    def test_snapshot_labels(self):
        reg = MetricsRegistry()
        reg.counter("a", rank=3).inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["a[rank=3]"] == 1.0
        assert snap["gauges"]["g"]["value"] == 1.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_format_summary_filters(self):
        reg = MetricsRegistry()
        reg.counter("keep", rank=0).inc(7)
        reg.counter("drop").inc(9)
        text = format_summary(reg, names=["keep"])
        assert "keep[rank=0]: 7" in text
        assert "drop" not in text


class TestEngineIntegration:
    def test_engine_publishes_byte_counters(self):
        reg = MetricsRegistry()

        def body(ctx, comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield from comm.send(right, 3, None, 256)
            yield from comm.recv(left, 3)

        with run_context(metrics=reg):
            run_spmd(body)
        assert reg.merged_counter("engine.bytes.sent") == 4 * 256
        assert reg.merged_counter("engine.bytes.delivered") == 4 * 256
        assert reg.ranks_of("engine.bytes.sent") == [0, 1, 2, 3]

    def test_default_registry_restored(self):
        assert current_context().metrics is None
        with run_context(metrics=MetricsRegistry()):
            assert current_context().metrics is not None
        assert current_context().metrics is None
