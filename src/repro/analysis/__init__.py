"""Evaluation machinery: accuracy checks, imbalance, drift statistics."""

from repro.analysis.accuracy import check_clock_accuracy, ground_truth_accuracy
from repro.analysis.imbalance import measure_barrier_imbalance
from repro.analysis.drift import record_drift, drift_linearity
from repro.analysis.reporting import Table, format_table

__all__ = [
    "check_clock_accuracy",
    "ground_truth_accuracy",
    "measure_barrier_imbalance",
    "record_drift",
    "drift_linearity",
    "Table",
    "format_table",
]
