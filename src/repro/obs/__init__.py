"""Observability layer: engine events, metrics, sync-round stats, export.

The subsystem is strictly *passive*: installing a sink or a metrics
registry never draws randomness, never advances simulated time, and never
changes scheduling — a seeded simulation produces bit-identical results
with and without observability enabled (tested in
``tests/simmpi/test_obs_determinism.py``).

Hooks attach to one simulation through its keywords
(``Simulation(sink=..., metrics=..., timeseries=...)``) or to every
simulation in a block through :func:`repro.context.run_context`.

Entry points:

* :mod:`repro.obs.events` — the :class:`EventSink` protocol, typed event
  records emitted by the engine/communicator, and ready-made sinks.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with per-rank
  labels and job-level aggregation.
* :mod:`repro.obs.sync_stats` — per-round instrumentation of the clock
  synchronization algorithms (RTTs per fit point, fit residuals, slopes).
* :mod:`repro.obs.chrome_trace` — Chrome trace-event JSON export
  (Perfetto/about:tracing), with optional logical-clock remapping.
* :mod:`repro.obs.timeseries` — bounded, decimating per-rank telemetry
  series (clock error, drift model, resync age, NIC backlog) + markers.
* :mod:`repro.obs.health` — anomaly detectors over the telemetry bank
  producing typed findings and a per-run verdict.
* :mod:`repro.obs.report` — self-contained HTML + JSON run reports.
* :mod:`repro.obs.spans` — causal span/edge recorder (message edges,
  sync-phase spans, block intervals) over the event stream.
* :mod:`repro.obs.causal` — critical-path extraction, per-level latency
  attribution, and round-depth measurement over recorded spans.
"""

from repro.obs.events import (
    CollectiveEnter,
    CollectiveExit,
    CountingSink,
    EventSink,
    MsgDeliver,
    MsgSend,
    NicQueue,
    PhaseBegin,
    PhaseEnd,
    ProcBlock,
    ProcWake,
    RecordingSink,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_summary,
)
from repro.obs.sync_stats import (
    FitpointSample,
    SyncRoundRecord,
    SyncStatsCollector,
)
from repro.obs.timeseries import TimeSeries, TimeSeriesBank
from repro.obs.health import (
    HealthFinding,
    HealthVerdict,
    evaluate_health,
)
from repro.obs.report import build_report, render_html, write_report
from repro.obs.spans import MessageEdge, PhaseSpan, SpanRecorder

__all__ = [
    "CollectiveEnter",
    "CollectiveExit",
    "Counter",
    "CountingSink",
    "EventSink",
    "FitpointSample",
    "Gauge",
    "HealthFinding",
    "HealthVerdict",
    "Histogram",
    "MessageEdge",
    "MetricsRegistry",
    "MsgDeliver",
    "MsgSend",
    "NicQueue",
    "PhaseBegin",
    "PhaseEnd",
    "PhaseSpan",
    "ProcBlock",
    "ProcWake",
    "RecordingSink",
    "SpanRecorder",
    "SyncRoundRecord",
    "SyncStatsCollector",
    "TimeSeries",
    "TimeSeriesBank",
    "build_report",
    "evaluate_health",
    "format_summary",
    "render_html",
    "write_report",
]
