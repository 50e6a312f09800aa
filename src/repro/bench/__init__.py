"""Benchmarking layer: measurement schemes and suite emulations.

* :mod:`repro.bench.estimate` — latency pre-estimation (the
  ``ESTIMATE_LATENCY`` step of Algorithm 5).
* :mod:`repro.bench.schemes` — the three process-synchronization schemes
  the paper compares: barrier-based, window-based, and Round-Time (Alg. 5).
* :mod:`repro.bench.suites` — how OSU Micro-Benchmarks, Intel MPI
  Benchmarks, and ReproMPI aggregate raw samples into a reported latency.
* :mod:`repro.bench.runner` — end-to-end orchestration (sync clocks, run
  scheme, aggregate), used by the experiment modules.
"""

from repro.bench.estimate import estimate_latency
from repro.bench.schemes import (
    BarrierScheme,
    WindowScheme,
    RoundTimeScheme,
    SchemeResult,
)
from repro.bench.suites import (
    SuiteReport,
    barrier_report,
    reprompi_report,
)
from repro.bench.runner import LatencyMeasurement, run_latency_benchmark

__all__ = [
    "estimate_latency",
    "BarrierScheme",
    "WindowScheme",
    "RoundTimeScheme",
    "SchemeResult",
    "SuiteReport",
    "barrier_report",
    "reprompi_report",
    "LatencyMeasurement",
    "run_latency_benchmark",
]
