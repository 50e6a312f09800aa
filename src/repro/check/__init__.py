"""Simulation sanitizer: runtime invariant checking for the engine.

Attach a :class:`SanitizerSink` to any run (``Simulation(check=...)``,
or every run of a block with ``repro.context.run_context(check=...)``)
and every
engine-level invariant — per-rank time monotonicity, per-channel FIFO
matching, message conservation, block/wake lifecycle, collective
nesting, stats consistency — is verified as the run executes; deadlocks
are diagnosed with the blocked-wait cycle instead of an opaque stall.
The check runs live only: a CLI run takes it with ``--check`` (strict)
or ``--check --record DIR`` (report), which also lets it cross-check
the engine's counters and the span layer against the stream.

See DESIGN.md §11 for the invariant catalog and the mutant suite that
keeps the checker honest.
"""

from repro.check.clockcheck import (
    SLOPE_TOL,
    check_global_clock,
    clock_sanity_violations,
)
from repro.check.config import checking
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
    "check_global_clock",
    "checking",
    "clock_sanity_violations",
]
