"""Sanitizer activation and run-report files.

The sanitizer mode and report directory are fields of the run context
(:attr:`~repro.context.RunContext.check`, ``check_dir``), installed with
:func:`repro.context.run_context`:

* ``strict`` — the first violation raises
  :class:`~repro.errors.InvariantViolation`;
* ``report`` — violations accumulate, and each run's report is appended
  to ``check_dir`` (one JSON line per sanitized run, one file per
  process so parallel campaign workers never contend on a file).

The parallel campaign executor carries both fields to its worker
processes with each job's isolated context, which is what makes
``python -m repro.experiments fig3 --jobs 8 --check`` check every
simulated mpirun, wherever it executes.
"""

from __future__ import annotations

import json
import os

from repro.check.sanitizer import CheckReport, Violation
from repro.context import current_context, run_context
from repro.errors import InvariantViolation


def checking(mode: str = "strict", report_dir: str | None = None):
    """``run_context(check=mode, check_dir=report_dir)``: kept for
    ``perfbench/workloads.py``."""
    return run_context(check=mode, check_dir=report_dir)


def flag_violations(
    violations: list[Violation], label: str
) -> list[Violation]:
    """Outcome of a post-hoc check under the context's check mode.

    Strict mode raises :class:`~repro.errors.InvariantViolation` on the
    first violation; report mode appends them all to ``check_dir`` (when
    set) and returns them.
    """
    if not violations:
        return violations
    ctx = current_context()
    if ctx.check == "strict":
        v = violations[0]
        raise InvariantViolation(v.format(), violation=v)
    if ctx.check_dir is not None:
        report = CheckReport(label=label)
        report.violations.extend(violations)
        append_report(report, ctx.check_dir)
    return violations


def append_report(report: CheckReport, report_dir: str) -> str:
    """Append one run's report to the per-process JSONL file."""
    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, f"check-{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return path


def load_reports(report_dir: str) -> CheckReport:
    """Aggregate every per-process report file under ``report_dir``."""
    merged = CheckReport(label="aggregate")
    if not os.path.isdir(report_dir):
        return merged
    for name in sorted(os.listdir(report_dir)):
        if not (name.startswith("check-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(report_dir, name), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    merged.merge_from(
                        CheckReport.from_dict(json.loads(line))
                    )
    return merged


def write_aggregate(report_dir: str) -> tuple[str, CheckReport]:
    """Merge all run reports in ``report_dir`` into ``check_report.json``."""
    merged = load_reports(report_dir)
    path = os.path.join(report_dir, "check_report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path, merged
