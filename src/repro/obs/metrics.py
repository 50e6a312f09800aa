"""Metrics registry: counters, gauges, histograms with per-rank labels.

Naming convention (dotted, Prometheus-ish): the engine publishes

* ``engine.messages.sent`` / ``engine.messages.delivered`` (counters),
* ``engine.bytes.sent`` / ``engine.bytes.delivered`` (counters),
* ``engine.nic.backlog`` (histogram of queue depths found at the NIC),
* ``engine.mailbox.depth`` (histogram of mailbox depths at deposit),
* ``engine.rendezvous.stalls`` (counter of blocking Ssend matches),
* ``engine.rendezvous.stall_time`` (histogram of sender stall durations).

Metrics keyed with ``rank=`` aggregate per process; ``merged`` folds the
per-rank series of one name into a single job-level view.  Like the event
sinks, metrics are passive: updating them never perturbs the simulation.

Histograms keep an exact scalar summary and estimate quantiles from a
bounded, deterministic reservoir sampled by skipping (Vitter's
Algorithm L): the sampler draws the index of the next value to keep, so
a value that is not kept costs one integer compare and a batch costs
what its kept values cost.  Where the full array of observations is in
hand (the service driver's latencies), report quantiles from the array
and use the histogram only as the registry's summary of it.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

#: Fixed seed for every histogram's reservoir sampler: downsampling must
#: be a pure function of the observation sequence so repeated runs (and
#: the serial vs parallel executor paths, which replay the same sequence)
#: produce identical sample buffers.
RESERVOIR_SEED = 0xC10C


class Counter:
    """Monotonically increasing count/sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-set value, tracking the extremes and how often it was set.

    ``set_count`` distinguishes "created but never set" (value 0.0,
    extremes at ±inf) from a legitimately-set 0.0 — the merge path
    relies on it to avoid a pristine worker gauge clobbering the
    parent's last-set value.
    """

    __slots__ = ("value", "max_value", "min_value", "set_count")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf
        self.set_count = 0

    def set(self, value: float) -> None:
        self.value = value
        self.set_count += 1
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value


class Histogram:
    """Streaming summary (count/sum/min/max) plus a bounded sample buffer.

    Quantiles come from a deterministic **reservoir** (Vitter's
    Algorithm L with a fixed-seed per-instance RNG).  The first
    ``max_samples`` values fill the buffer; from then on the sampler
    draws the *index of the next value to keep* instead of one random
    number per value, so an observation that is not kept costs one
    integer compare and a stream of n values costs about
    ``3 * k * ln(n / k)`` draws instead of n.  Every offered value still
    has equal retention probability, and the buffer is a pure function
    of the observation sequence — repeated runs stay bit-identical, and
    :meth:`observe_many` keeps exactly the values a loop of
    :meth:`observe` would, under any chunking, because both draw only at
    kept indices.  The scalar summary stays exact regardless of volume.
    """

    __slots__ = ("count", "total", "min_value", "max_value", "_samples",
                 "max_samples", "_offered", "_next", "_w", "_rng")

    def __init__(self, max_samples: int = 4096) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.max_samples = max_samples
        self._samples: list[float] = []
        #: Values offered to the reservoir so far (observations plus
        #: replayed merge samples), and the index of the next one kept.
        self._offered = 0
        self._next = 0
        #: Algorithm L's running weight: the largest of the ``k`` uniform
        #: keys a keyed reservoir would hold after the values seen so far.
        self._w = 1.0
        self._rng = random.Random(RESERVOIR_SEED)

    def _keep(self, value: float) -> None:
        """Retain the value at index ``_next``; draw the next kept index."""
        samples = self._samples
        k = self.max_samples
        if len(samples) < k:
            samples.append(value)
            if len(samples) < k:
                self._next += 1
                return
        else:
            samples[self._rng.randrange(k)] = value
        uniform = self._rng.random
        self._w *= math.exp(math.log(uniform()) / k)
        self._next += int(math.log(uniform()) / math.log1p(-self._w)) + 1

    def _offer(self, value: float) -> None:
        """Offer one value to the reservoir."""
        if self._offered == self._next:
            self._keep(value)
        self._offered += 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self._offer(value)

    def observe_many(self, values) -> None:
        """Observe a batch (numpy array or sequence) of values.

        The reservoir jumps from kept index to kept index, so the
        retained sample buffer — and therefore every quantile — is
        bit-identical to a loop of :meth:`observe` calls over the same
        sequence, however it is chunked.  The scalar summary is folded
        batch-wise (``fsum`` for the total), which is exact rather than
        order-accumulated.
        """
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if n == 0:
            return
        self.count += n
        self.total += math.fsum(values)
        lo = float(values.min())
        hi = float(values.max())
        if lo < self.min_value:
            self.min_value = lo
        if hi > self.max_value:
            self.max_value = hi
        base = self._offered
        # While filling, every index is kept: take all but the slot that
        # completes the buffer (its _keep draws the first skip) at once.
        fill = min(n, self.max_samples - 1 - len(self._samples))
        if fill > 0:
            self._samples.extend(values[:fill].tolist())
            self._next += fill
        end = base + n
        while self._next < end:
            self._keep(float(values[self._next - base]))
        self._offered = end

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Interpolated quantile estimates from one sort of the samples."""
        if not self._samples:
            return [0.0 for _ in qs]
        ordered = sorted(self._samples)
        last = len(ordered) - 1
        out = []
        for q in qs:
            h = min(float(last), max(0.0, q * last))
            lo = int(h)
            hi = min(lo + 1, last)
            frac = h - lo
            out.append(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
        return out

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate from the retained samples."""
        return self.quantiles((q,))[0]

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in: exact summary, its buffer replayed through
        this reservoir.

        The replay is deterministic and gives every replayed value the
        same chance as this histogram's own observations, so late or
        other-worker samples are represented.  It does *not* weight by
        ``other.count``: a full buffer standing for a million
        observations is offered as ``max_samples`` values, so merged
        quantiles lean towards the side that was downsampled less.
        """
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        for value in other._samples:
            self._offer(value)


class MetricsRegistry:
    """Registry of named metrics, optionally labelled by rank.

    A metric is addressed by ``(name, rank)``; ``rank=None`` is the
    job-level series.  Accessors create on first use so instrumentation
    sites stay one-liners.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, int | None], Counter] = {}
        self._gauges: dict[tuple[str, int | None], Gauge] = {}
        self._histograms: dict[tuple[str, int | None], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, rank: int | None = None) -> Counter:
        key = (name, rank)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, rank: int | None = None) -> Gauge:
        key = (name, rank)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, rank: int | None = None) -> Histogram:
        key = (name, rank)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def ranks_of(self, name: str) -> list[int]:
        """The ranks that have a per-rank series under ``name``."""
        ranks = {
            rank
            for store in (self._counters, self._gauges, self._histograms)
            for (n, rank) in store
            if n == name and rank is not None
        }
        return sorted(ranks)

    def merged_counter(self, name: str) -> float:
        """Sum of one counter over all its labels (per-rank + job-level)."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def merged_histogram(self, name: str) -> Histogram:
        """All labelled series of one histogram folded together."""
        merged = Histogram()
        for (n, _), h in self._histograms.items():
            if n == name:
                merged.merge(h)
        return merged

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (label-wise).

        Counters and histograms accumulate; a gauge takes the other's
        last-set value *only if the other gauge was actually set*
        (``set_count > 0``) while keeping the combined extremes — a
        worker gauge that was created but never set must not clobber
        the parent's value.  Used by the parallel executor to merge
        per-worker registries into the parent in job-submission order.
        """
        for key, c in other._counters.items():
            self.counter(*key).inc(c.value)
        for key, g in other._gauges.items():
            mine = self.gauge(*key)
            if g.set_count:
                mine.value = g.value
            mine.set_count += g.set_count
            mine.max_value = max(mine.max_value, g.max_value)
            mine.min_value = min(mine.min_value, g.min_value)
        for key, h in other._histograms.items():
            self.histogram(*key).merge(h)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Plain-dict dump (for run summaries and JSON serialization)."""

        def label(name: str, rank: int | None) -> str:
            return name if rank is None else f"{name}[rank={rank}]"

        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, rank), c in sorted(self._counters.items(),
                                      key=lambda kv: str(kv[0])):
            out["counters"][label(name, rank)] = c.value
        for (name, rank), g in sorted(self._gauges.items(),
                                      key=lambda kv: str(kv[0])):
            out["gauges"][label(name, rank)] = {
                "value": g.value, "max": g.max_value, "min": g.min_value,
                "set_count": g.set_count,
            }
        for (name, rank), h in sorted(self._histograms.items(),
                                      key=lambda kv: str(kv[0])):
            p50, p99, p999 = h.quantiles((0.5, 0.99, 0.999))
            out["histograms"][label(name, rank)] = {
                "count": h.count,
                "mean": h.mean,
                "min": h.min_value if h.count else 0.0,
                "max": h.max_value if h.count else 0.0,
                "p50": p50,
                "p99": p99,
                "p999": p999,
            }
        return out

    def names(self) -> list[str]:
        """Every distinct metric name in the registry."""
        seen: set[str] = set()
        for store in (self._counters, self._gauges, self._histograms):
            seen.update(name for (name, _) in store)
        return sorted(seen)


def format_summary(registry: MetricsRegistry,
                   names: Iterable[str] | None = None) -> str:
    """Human-readable one-line-per-metric summary of a registry."""
    snap = registry.snapshot()
    lines = []
    wanted = set(names) if names is not None else None

    def keep(label: str) -> bool:
        if wanted is None:
            return True
        return label.split("[")[0] in wanted

    for label, value in snap["counters"].items():
        if keep(label):
            lines.append(f"{label}: {value:g}")
    for label, g in snap["gauges"].items():
        if keep(label):
            lines.append(f"{label}: {g['value']:g} (max {g['max']:g})")
    for label, h in snap["histograms"].items():
        if keep(label) and h["count"]:
            lines.append(
                f"{label}: n={h['count']} mean={h['mean']:.3g} "
                f"p99={h['p99']:.3g} max={h['max']:.3g}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-wide default registry (used by Simulation when none is passed)
# ----------------------------------------------------------------------
_DEFAULT_METRICS: MetricsRegistry | None = None


def set_default_metrics(registry: MetricsRegistry | None) -> None:
    """Install (or clear, with ``None``) the default metrics registry."""
    global _DEFAULT_METRICS
    _DEFAULT_METRICS = registry


def get_default_metrics() -> MetricsRegistry | None:
    """The currently installed default registry, if any."""
    return _DEFAULT_METRICS


@contextmanager
def default_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` as the default (restores on exit)."""
    previous = get_default_metrics()
    set_default_metrics(registry)
    try:
        yield registry
    finally:
        set_default_metrics(previous)
