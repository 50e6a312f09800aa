"""Compiled model epochs: one sync generation, frozen for serving.

A :class:`ModelEpoch` is the service layer's unit of cache: the per-rank
linear clock models produced by one sync round, compiled into flat numpy
arrays so a burst of queries against the same generation costs one
vectorized model evaluation instead of per-query Python dispatch.

The vectorized evaluators reproduce the scalar
:class:`~repro.sync.linear_model.LinearDriftModel` arithmetic in the same
IEEE-754 operation order (``t - (slope * t + intercept)``), so a batched
answer is bit-identical to the scalar one — the property
``tests/properties/test_property_service.py`` pins.

Per-response staleness comes from the paper's accuracy analysis: the
bound ``base_error + (1 + |slope|) * growth(age)`` starts at the fit's
residual error and grows with model age at a rate set by each rank's
drift family (``DriftModel.error_growth_many``).  The reference rank serves its own readings, so its
bound is identically zero; every other rank accumulates both its own and
the reference oscillator's wander.  Ranks are grouped by family at
compile time (``DriftModel.growth_key()``), so a batch evaluates each
family's growth once, however many ranks share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import SyncError
from repro.simtime.drift import DriftModel
from repro.sync.linear_model import LinearDriftModel


@dataclass(frozen=True, eq=False)
class ModelEpoch:
    """Per-rank clock models of one sync generation, serving-ready."""

    #: Monotonically increasing sync-round counter (cache key).
    generation: int
    #: True time the models were fitted (age reference for staleness).
    synced_at: float
    #: Per-rank ``offset(t) = slope * t + intercept`` model coefficients
    #: (client minus reference, the package-wide sign convention).
    slopes: np.ndarray
    intercepts: np.ndarray
    #: Per-rank drift families (``DriftModel`` or plain rate in s/s) the
    #: staleness bounds are derived from.
    drifts: tuple
    #: Residual/measurement error of the fit itself (seconds).
    base_error: float = 0.0
    #: Rank whose clock defines reference time (its model is identity).
    ref_rank: int = 0
    #: Per-rank ``1 + |slope|`` error-scale factors (precompiled).
    _scale: np.ndarray = field(init=False, repr=False)
    #: Per-rank index into ``_family_drifts``: ranks whose drifts share a
    #: growth key share one staleness-growth evaluation per batch.
    _family: np.ndarray = field(init=False, repr=False)
    _family_drifts: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        slopes = np.asarray(self.slopes, dtype=np.float64)
        intercepts = np.asarray(self.intercepts, dtype=np.float64)
        if slopes.shape != intercepts.shape or slopes.ndim != 1:
            raise SyncError("slopes/intercepts must be equal-length 1-D")
        if len(self.drifts) != slopes.size:
            raise SyncError("need one drift entry per rank")
        if np.any(np.abs(1.0 - slopes) < 1e-9):
            raise SyncError("a model with slope ~1 is not invertible")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "_scale", 1.0 + np.abs(slopes))
        index_of: dict = {}
        family_drifts: list = []
        family = np.empty(slopes.size, dtype=np.intp)
        for rank, drift in enumerate(self.drifts):
            key = (
                drift.growth_key() if isinstance(drift, DriftModel)
                else abs(float(drift))
            )
            # An unknown family (key None) is never shared.
            index = None if key is None else index_of.get(key)
            if index is None:
                index = len(family_drifts)
                family_drifts.append(drift)
                if key is not None:
                    index_of[key] = index
            family[rank] = index
        object.__setattr__(self, "_family", family)
        object.__setattr__(self, "_family_drifts", tuple(family_drifts))

    @property
    def num_ranks(self) -> int:
        return self.slopes.size

    def model_for(self, rank: int) -> LinearDriftModel:
        """The scalar model of one rank (the uncached reference path)."""
        return LinearDriftModel(
            slope=float(self.slopes[rank]),
            intercept=float(self.intercepts[rank]),
        )

    # ------------------------------------------------------------------
    # Vectorized model evaluation
    # ------------------------------------------------------------------
    def global_of(
        self, ranks: np.ndarray, readings: np.ndarray
    ) -> np.ndarray:
        """Batch ``LinearDriftModel.apply``: local readings → global time.

        Same operation order as the scalar ``t - (slope * t + intercept)``,
        so each element is bit-identical to ``model_for(rank).apply(t)``.
        """
        readings = np.asarray(readings, dtype=np.float64)
        slopes = self.slopes[ranks]
        intercepts = self.intercepts[ranks]
        return readings - (slopes * readings + intercepts)

    def local_of(
        self, ranks: np.ndarray, reference_times: np.ndarray
    ) -> np.ndarray:
        """Batch ``apply_inverse``: global time → local reading per rank."""
        reference_times = np.asarray(reference_times, dtype=np.float64)
        return (
            (reference_times + self.intercepts[ranks])
            / (1.0 - self.slopes[ranks])
        )

    # ------------------------------------------------------------------
    # Staleness bounds
    # ------------------------------------------------------------------
    def _growth(self, family: int, ages: np.ndarray) -> np.ndarray:
        drift = self._family_drifts[family]
        if isinstance(drift, DriftModel):
            return drift.error_growth_many(ages)
        return abs(float(drift)) * np.clip(ages, 0.0, None)

    def bounds_for(
        self, ranks: np.ndarray, ages: np.ndarray
    ) -> np.ndarray:
        """Per-query worst-case error of ``global_of`` at the given ages.

        Non-reference ranks accumulate their own *and* the reference
        oscillator's wander (the fitted slope only froze their relative
        rate at sync time); the reference rank serves its own readings,
        which cannot go stale.  Growth is evaluated once per drift
        family in the batch, not once per rank; each element goes
        through the same IEEE-754 operations either way.
        """
        ranks = np.asarray(ranks)
        ages = np.asarray(ages, dtype=np.float64)
        ref_family = int(self._family[self.ref_rank])
        ref_growth = self._growth(ref_family, ages)
        if len(self._family_drifts) == 1:
            growth = ref_growth
        else:
            families = self._family[ranks]
            growth = np.empty(ages.shape, dtype=np.float64)
            present = np.flatnonzero(
                np.bincount(families, minlength=len(self._family_drifts))
            )
            for family in present:
                mask = families == family
                growth[mask] = (
                    ref_growth[mask] if family == ref_family
                    else self._growth(int(family), ages[mask])
                )
        bounds = self.base_error + self._scale[ranks] * (growth + ref_growth)
        bounds[ranks == self.ref_rank] = 0.0
        return bounds

    def max_bound(self, age: float) -> float:
        """Worst per-rank bound at one age (resync-policy decision input)."""
        ranks = np.arange(self.num_ranks)
        ages = np.full(self.num_ranks, float(age))
        return float(self.bounds_for(ranks, ages).max())


def compile_epoch(
    generation: int,
    synced_at: float,
    models: Sequence[LinearDriftModel],
    drifts: Sequence,
    base_error: float = 0.0,
    ref_rank: int = 0,
) -> ModelEpoch:
    """Flatten per-rank models into a serving-ready :class:`ModelEpoch`."""
    return ModelEpoch(
        generation=generation,
        synced_at=synced_at,
        slopes=np.array([m.slope for m in models], dtype=np.float64),
        intercepts=np.array(
            [m.intercept for m in models], dtype=np.float64
        ),
        drifts=tuple(drifts),
        base_error=float(base_error),
        ref_rank=ref_rank,
    )
