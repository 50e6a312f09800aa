"""Clock synchronization algorithms — the paper's core contribution.

Building blocks
---------------
* :mod:`repro.sync.offset` — clock-offset measurement between a process
  pair: SKaMPI-Offset (Alg. 7) and Mean-RTT-Offset (Alg. 8).
* :mod:`repro.sync.linear_model` — linear clock-drift models: least-squares
  fitting, composition (model merging), inversion.
* :mod:`repro.sync.clocks` — :class:`GlobalClockLM` decorator clocks,
  nesting, and flatten/unflatten for ClockPropSync broadcasts.
* :mod:`repro.sync.learn` — ``LEARN_CLOCK_MODEL`` and
  ``COMPUTE_AND_SET_INTERCEPT`` (Alg. 2).

Algorithms
----------
* :class:`~repro.sync.jk.JKSync` — Jones/Koenig, O(p) rounds.
* :class:`~repro.sync.hca.HCASync` / :class:`~repro.sync.hca.HCA2Sync` —
  inverted-binomial-tree model learning with merging.
* :class:`~repro.sync.hca3.HCA3Sync` — Alg. 1: the reference time is pushed
  *down* the tree; O(log p) rounds, no model merging.
* :class:`~repro.sync.clockprop.ClockPropSync` — Alg. 3: clone the parent's
  clock model inside a shared-time-source domain.
* :class:`~repro.sync.hierarchical.HierarchicalSync` — the HlHCA scheme;
  :func:`~repro.sync.hierarchical.h2hca` / ``h3hca`` are the paper's
  concrete realizations (Alg. 4).
"""

from repro.sync.linear_model import LinearDriftModel
from repro.sync.clocks import (
    GlobalClockLM,
    dummy_global_clock,
    flatten_clock,
    unflatten_clock,
)
from repro.sync.offset import (
    ClockOffset,
    OffsetAlgorithm,
    SKaMPIOffset,
    MeanRTTOffset,
)
from repro.sync.learn import learn_clock_model
from repro.sync.base import ClockSyncAlgorithm
from repro.sync.jk import JKSync
from repro.sync.hca import HCASync, HCA2Sync
from repro.sync.hca3 import HCA3Sync
from repro.sync.clockprop import ClockPropagationSync
from repro.sync.hierarchical import HierarchicalSync, h2hca, h3hca
from repro.sync.resync import PeriodicResyncClock
from repro.sync.registry import algorithm_from_label

__all__ = [
    "LinearDriftModel",
    "GlobalClockLM",
    "dummy_global_clock",
    "flatten_clock",
    "unflatten_clock",
    "ClockOffset",
    "OffsetAlgorithm",
    "SKaMPIOffset",
    "MeanRTTOffset",
    "learn_clock_model",
    "ClockSyncAlgorithm",
    "JKSync",
    "HCASync",
    "HCA2Sync",
    "HCA3Sync",
    "ClockPropagationSync",
    "HierarchicalSync",
    "h2hca",
    "h3hca",
    "PeriodicResyncClock",
    "algorithm_from_label",
]
