"""MPI tracing case study (paper Section V-C, Fig. 10).

A tailor-made tracing layer records per-process start/end timestamps of
MPI calls using an arbitrary clock — the paper's point is that with local
clocks (``clock_gettime`` especially) the cross-process timestamps are
incomparable, while a global clock (H2HCA) makes event structure visible.
"""

from repro.trace.tracer import TraceEvent, Tracer
from repro.trace.gantt import GanttBar, gantt_bars, visibility_ratio
from repro.trace.amg import amg_iteration_loop, AMG_DEFAULTS

__all__ = [
    "TraceEvent",
    "Tracer",
    "GanttBar",
    "gantt_bars",
    "visibility_ratio",
    "amg_iteration_loop",
    "AMG_DEFAULTS",
]
