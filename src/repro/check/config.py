"""Sanitizer activation and the run's report.

The sanitizer mode and the report it fills are fields of the run context
(:attr:`~repro.context.RunContext.check`, ``check_report``), installed
with :func:`repro.context.run_context`:

* ``strict`` — the first violation raises
  :class:`~repro.errors.InvariantViolation`;
* ``report`` — violations accumulate, and each run's report is merged
  into the context's ``check_report`` (when set).

The parallel campaign executor hands each job an isolated context with a
fresh report and merges it back in submission order, like every other
hook, which is what makes ``python -m repro.experiments fig3 --jobs 8
--check --record DIR`` check every simulated mpirun, wherever it
executes, into one report that is identical for any ``--jobs``.
"""

from __future__ import annotations

from repro.check.sanitizer import CheckReport, Violation
from repro.context import current_context, run_context
from repro.errors import InvariantViolation


def checking(mode: str = "strict"):
    """``run_context(check=mode)``: kept for ``perfbench/workloads.py``."""
    return run_context(check=mode)


def flag_violations(
    violations: list[Violation], label: str, *, runs: int = 0,
    events_checked: int = 0,
) -> list[Violation]:
    """Outcome of a post-hoc check under the context's check mode.

    Strict mode raises :class:`~repro.errors.InvariantViolation` on the
    first violation; report mode merges them all into the context's
    ``check_report`` (when set) and returns them.  A check that counts
    itself as a run (``runs``, with the ``events_checked`` it examined)
    is merged in report mode even when clean, so a report tells "checked
    and clean" from "never checked"; a check inside a sanitized
    simulation leaves the counting to the simulation's own report.
    """
    ctx = current_context()
    if violations and ctx.check == "strict":
        v = violations[0]
        raise InvariantViolation(v.format(), violation=v)
    if (
        (violations or runs)
        and ctx.check == "report"
        and ctx.check_report is not None
    ):
        report = CheckReport(
            label=label, runs=runs, events_checked=events_checked
        )
        report.violations.extend(violations)
        ctx.check_report.merge_from(report)
    return violations
