"""Simulation sanitizer: runtime invariant checking for the engine.

Attach a :class:`SanitizerSink` to any run (``Simulation(check=...)``,
or every run of a block with ``repro.context.run_context(check=...)``)
and every
engine-level invariant — per-rank time monotonicity, per-channel FIFO
matching, message conservation, block/wake lifecycle, collective
nesting, stats consistency — is verified as the run executes; deadlocks
are diagnosed with the blocked-wait cycle instead of an opaque stall.
``python -m repro.check`` re-checks recorded event streams post-hoc.

See DESIGN.md §11 for the invariant catalog and the mutant suite that
keeps the checker honest.
"""

from repro.check.clockcheck import (
    SLOPE_TOL,
    assert_clock_sane,
    check_global_clock,
    clock_sanity_violations,
)
from repro.check.config import (
    append_report,
    checking,
    load_reports,
    write_aggregate,
)
from repro.check.replay import (
    dump_events,
    event_from_dict,
    event_to_dict,
    load_events,
    replay_events,
    replay_file,
)
from repro.check.sanitizer import (
    MAX_VIOLATIONS,
    CheckReport,
    SanitizerSink,
    TeeSink,
    Violation,
)
from repro.errors import InvariantViolation

__all__ = [
    "CheckReport",
    "InvariantViolation",
    "MAX_VIOLATIONS",
    "SLOPE_TOL",
    "SanitizerSink",
    "TeeSink",
    "Violation",
    "append_report",
    "assert_clock_sane",
    "check_global_clock",
    "checking",
    "clock_sanity_violations",
    "dump_events",
    "event_from_dict",
    "event_to_dict",
    "load_events",
    "load_reports",
    "replay_events",
    "replay_file",
    "write_aggregate",
]
