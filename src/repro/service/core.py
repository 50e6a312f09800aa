"""``ClockService``: global-clock reads as a cached, batched service.

ROADMAP item 4: the synchronized clock reframed as a consumer-facing
service.  A :class:`ClockService` answers three query shapes against the
latest synced models of a model provider (anything exposing the
:class:`ModelProvider` surface — the service driver's simulated cluster,
or a hand-rolled stub in tests):

* ``now(rank, reading, at)`` — a rank-local timestamp adjusted to the
  estimated global (reference) time,
* ``translate(t, src, dst, at)`` — a timestamp from one rank's clock
  domain re-expressed in another's (the MPI trace-alignment operation),
* ``compare(a, b, at)`` — the global-time delta between two events from
  different clock domains, with a definite-order verdict.

Every response carries the error bound of the paper's accuracy analysis
evaluated at the response's model age, and a ``stale`` flag set when that
bound exceeds the service's SLO.

The **epoch cache** makes the service cheap under load: it compiles the
provider's models into a :class:`~repro.service.epoch.ModelEpoch` once
per sync generation, and every query until the next resync reuses the
compiled arrays (an *epoch hit*).  A resync bumps the generation, which
invalidates the compiled epoch, so no answer is ever computed against a
superseded model (the property test tier pins this).

:func:`~repro.service.driver.run_service` serves through the batch entry
points (``now_batch`` et al.), which evaluate whole query bursts through
one vectorized model evaluation.  The scalar methods compute one answer
against the current epoch with the per-rank model arithmetic, and the
batch answers equal theirs element by element: the tests pin this, and
``run_service``'s sanitizer pass recomputes sampled batch answers the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.service.epoch import ModelEpoch, compile_epoch
from repro.sync.linear_model import LinearDriftModel


@runtime_checkable
class ModelProvider(Protocol):
    """What the service needs from the sync layer."""

    #: Monotonically increasing sync-round counter.
    generation: int
    #: True time the current models were fitted.
    synced_at: float
    #: Fit residual bound of the current models (seconds).
    base_error: float
    #: Rank whose clock defines reference time.
    ref_rank: int

    def models(self) -> Sequence[LinearDriftModel]:
        """Per-rank models of the current generation."""

    def drifts(self) -> Sequence:
        """Per-rank drift families (``DriftModel`` or rate in s/s)."""


@dataclass(frozen=True)
class ServiceResponse:
    """One answered query: the value plus its staleness contract."""

    value: float
    #: Worst-case |value - truth| at this response's model age.
    error_bound: float
    #: True when ``error_bound`` exceeds the service SLO.
    stale: bool
    #: Sync generation the answer was computed against.
    generation: int


@dataclass
class ServiceStats:
    """Serving-side counters (cache behaviour + staleness accounting)."""

    queries: int = 0
    stale_served: int = 0
    #: Queries served against an already-compiled epoch.
    epoch_hits: int = 0
    #: Epoch compilations (one per sync generation actually queried).
    epoch_misses: int = 0
    by_op: dict = field(default_factory=dict)

    def cache_hit_ratio(self) -> float:
        total = self.epoch_hits + self.epoch_misses
        return self.epoch_hits / total if total else 0.0

    def stale_rate(self) -> float:
        return self.stale_served / self.queries if self.queries else 0.0

    def count(self, op: str, n: int, stale: int) -> None:
        self.queries += n
        self.stale_served += stale
        self.by_op[op] = self.by_op.get(op, 0) + n


class ClockService:
    """Serves global-clock queries against a provider's synced models."""

    def __init__(self, provider: ModelProvider, slo: float) -> None:
        if slo <= 0.0:
            raise ValueError("slo must be > 0")
        self.provider = provider
        self.slo = float(slo)
        self.stats = ServiceStats()
        self._epoch: ModelEpoch | None = None

    # ------------------------------------------------------------------
    # Epoch cache
    # ------------------------------------------------------------------
    def _current_epoch(self) -> tuple[ModelEpoch, bool]:
        """Compiled epoch of the provider's current generation + hit flag.

        Compiles (and drops the stale epoch) when the provider has
        resynced since the last query; otherwise the cached compile is
        reused.
        """
        generation = self.provider.generation
        if self._epoch is None or self._epoch.generation != generation:
            self._epoch = compile_epoch(
                generation=generation,
                synced_at=self.provider.synced_at,
                models=self.provider.models(),
                drifts=self.provider.drifts(),
                base_error=self.provider.base_error,
                ref_rank=self.provider.ref_rank,
            )
            self.stats.epoch_misses += 1
            return self._epoch, True
        return self._epoch, False

    def epoch(self) -> ModelEpoch:
        """The current compiled epoch.

        No *query* accounting, but a compile triggered here still counts
        as an epoch-cache miss (there is exactly one per generation
        touched, wherever the first touch happens).
        """
        return self._current_epoch()[0]

    def _count_epoch(self, compiled: bool, nqueries: int) -> None:
        # The query that triggered a compile is the miss (already
        # counted at compile time); everything else is a hit.
        self.stats.epoch_hits += nqueries - 1 if compiled else nqueries

    # ------------------------------------------------------------------
    # Scalar API (one answer against the current epoch)
    # ------------------------------------------------------------------
    def _answer(
        self, op: str, value: float, bound: float, epoch: ModelEpoch
    ) -> ServiceResponse:
        stale = bound > self.slo
        self.stats.count(op, 1, int(stale))
        return ServiceResponse(
            value=value, error_bound=bound, stale=stale,
            generation=epoch.generation,
        )

    def _scalar_epoch(self) -> ModelEpoch:
        epoch, compiled = self._current_epoch()
        self._count_epoch(compiled, 1)
        return epoch

    def _bound(self, epoch: ModelEpoch, rank: int, at: float) -> float:
        ages = np.array([at - epoch.synced_at])
        return float(epoch.bounds_for(np.array([rank]), ages)[0])

    def now(self, rank: int, reading: float, at: float) -> ServiceResponse:
        """Estimated global time of a rank-local reading.

        ``at`` is the service time of the request (true seconds), which
        sets the model age — and therefore the bound — of the response.
        """
        epoch = self._scalar_epoch()
        return self._answer(
            "now", epoch.model_for(rank).apply(reading),
            self._bound(epoch, rank, at), epoch,
        )

    def translate(
        self, t: float, src_rank: int, dst_rank: int, at: float
    ) -> ServiceResponse:
        """A src-local timestamp re-expressed in dst's clock domain."""
        epoch = self._scalar_epoch()
        reference = epoch.model_for(src_rank).apply(t)
        return self._answer(
            "translate", epoch.model_for(dst_rank).apply_inverse(reference),
            self._bound(epoch, src_rank, at)
            + self._bound(epoch, dst_rank, at),
            epoch,
        )

    def compare(
        self,
        a: tuple[int, float],
        b: tuple[int, float],
        at: float,
    ) -> ServiceResponse:
        """Global-time delta of two ``(rank, reading)`` events (a - b).

        The response is *stale* when the combined bound exceeds the SLO;
        independently, ``abs(value) > error_bound`` means the ordering is
        definite even in the worst case.
        """
        epoch = self._scalar_epoch()
        (rank_a, t_a), (rank_b, t_b) = a, b
        return self._answer(
            "compare",
            epoch.model_for(rank_a).apply(t_a)
            - epoch.model_for(rank_b).apply(t_b),
            self._bound(epoch, rank_a, at) + self._bound(epoch, rank_b, at),
            epoch,
        )

    # ------------------------------------------------------------------
    # Batch API (one vectorized model evaluation per burst)
    # ------------------------------------------------------------------
    def now_batch(
        self, ranks: np.ndarray, readings: np.ndarray, at: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`now`: ``(values, bounds, stale)`` arrays."""
        epoch, compiled = self._current_epoch()
        self._count_epoch(compiled, len(readings))
        values = epoch.global_of(ranks, readings)
        bounds = epoch.bounds_for(ranks, np.asarray(at) - epoch.synced_at)
        stale = bounds > self.slo
        self.stats.count("now", len(values), int(stale.sum()))
        return values, bounds, stale

    def translate_batch(
        self,
        readings: np.ndarray,
        src_ranks: np.ndarray,
        dst_ranks: np.ndarray,
        at: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`translate`."""
        epoch, compiled = self._current_epoch()
        self._count_epoch(compiled, len(readings))
        reference = epoch.global_of(src_ranks, readings)
        values = epoch.local_of(dst_ranks, reference)
        ages = np.asarray(at) - epoch.synced_at
        bounds = (
            epoch.bounds_for(src_ranks, ages)
            + epoch.bounds_for(dst_ranks, ages)
        )
        stale = bounds > self.slo
        self.stats.count("translate", len(values), int(stale.sum()))
        return values, bounds, stale

    def compare_batch(
        self,
        ranks_a: np.ndarray,
        readings_a: np.ndarray,
        ranks_b: np.ndarray,
        readings_b: np.ndarray,
        at: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`compare`."""
        epoch, compiled = self._current_epoch()
        self._count_epoch(compiled, len(readings_a))
        values = (
            epoch.global_of(ranks_a, readings_a)
            - epoch.global_of(ranks_b, readings_b)
        )
        ages = np.asarray(at) - epoch.synced_at
        bounds = (
            epoch.bounds_for(ranks_a, ages)
            + epoch.bounds_for(ranks_b, ages)
        )
        stale = bounds > self.slo
        self.stats.count("compare", len(values), int(stale.sum()))
        return values, bounds, stale
