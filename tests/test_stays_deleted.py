"""Deleted code stays deleted: no file under a row's paths matches its pattern.

Each row names what a past simplification removed, the regular
expression that would find it again and the files and directories it is
searched in (recursively, bytecode caches aside).  This file holds every
pattern, so it skips itself.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: ``(id, pattern, paths)``, one row per deletion.
ROWS = [
    (
        "perf-ledger",  # one performance ledger: the old benchmark system
        r"repro\.perf|BENCH_engine|bench_engine_perf",
        ("src", "examples", *DOCS),
    ),
    (
        "disturbance-model",  # one disturbance model: the adversary fork
        r"AdversaryInjector|adversary_from_dict|make_preset|class Scenario\b",
        ("src", "tests", "examples"),
    ),
    (
        "recv-descriptor",  # a blocked receive is its RecvCmd
        r"RecvDescriptor",
        ("src", "tests", "examples"),
    ),
    (
        # A frozen event record costs a setattr per field.
        "unfrozen-events",
        r"frozen=True",
        ("src/repro/obs/events.py",),
    ),
    (
        # One run context: the hook singletons and the check env switch.
        "run-context",
        r"get_default_|set_default_|default_(sink|metrics|timeseries)\(|"
        r"REPRO_CHECK|set_check_mode|active_check_mode|check_report_dir",
        ("src", "tests", "examples", *DOCS),
    ),
    (
        "run-record",  # one run record: the per-artifact CLI flags
        r"--(obs-summary|health-report|critical-path|check-report|"
        r"chrome-trace-dir)",
        ("src", "examples", *DOCS),
    ),
    (
        "sync-cell",  # one sync cell: the twin loops
        r"_campaign_job|_run_one\b|RoundResult|sync_then_check|"
        r"sync_check_outcome|include_baseline|no-check",
        ("src", "tests", "examples", *DOCS),
    ),
    (
        "unreached-paths",  # paths no run takes
        r"python -m repro\.check\b|dump_events|replay_file|skampi_report|"
        r"_memoized|memo_hits|\blabel_of\b",
        ("src", "tests", "examples", *DOCS),
    ),
    (
        # What only tests kept alive: names, collective variants, settings.
        "test-only-code",
        r"HealthThresholds|ErrorBoundResyncClock|BatchingModel|stack_depth|"
        r"effective_model|rms_residual|for_client|shared_time_source|"
        r"true_offset|skew_at|offset_to|base_delay|_BASE_CACHE_LIMIT|"
        r"\b(REDUCE|GATHER|SCATTER|ALLGATHER|ALLTOALL)_ALGORITHMS|"
        r"to_json|from_json|error_bound\(|min_resync_interval|fit_points|"
        r"neighbor_exchange",
        ("src", "examples", *DOCS),
    ),
]


def _files(paths):
    for name in paths:
        path = ROOT / name
        found = sorted(path.rglob("*")) if path.is_dir() else [path]
        for file in found:
            if (file.is_file() and "__pycache__" not in file.parts
                    and file != Path(__file__).resolve()):
                yield file


def hits(pattern: str, paths) -> list[str]:
    """``path:line: text`` of every line under ``paths`` that matches."""
    regex = re.compile(pattern)
    return [
        f"{file.relative_to(ROOT)}:{number}: {line.strip()}"
        for file in _files(paths)
        for number, line in enumerate(
            file.read_text(errors="replace").splitlines(), 1
        )
        if regex.search(line)
    ]


@pytest.mark.parametrize(
    "pattern, paths", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_stays_deleted(pattern, paths):
    found = hits(pattern, paths)
    assert not found, "\n".join(found)
