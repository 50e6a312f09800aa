"""Fault-recovery experiment: sync under disturbance, with/without resync.

Not a figure of the paper, but a direct consequence of Section III-C2:
the linear clock model is only valid for ~0–20 s, so tracing tools must
re-synchronize periodically — and a faulted clock/network is the extreme
case.  This target injects a preset scenario (:mod:`repro.faults.scenarios`)
into a simulated job and reports the ground-truth global-clock error
before, during, and after the fault, once with a single up-front sync
and once with :class:`~repro.sync.resync.PeriodicResyncClock`.

Run::

    python -m repro.experiments fault_recovery --scale quick \
        --scenario ntp_step

With ``--record DIR --trace`` the run is also exported as Chrome trace
JSON whose ``fault`` track shows the injection windows as spans.
"""

from __future__ import annotations

import os

from repro.context import run_context
from repro.faults.evaluate import (
    RecoveryReport,
    compare_recovery,
    run_recovery,
)
from repro.faults.scenarios import make_scenario
from repro.obs.chrome_trace import export_chrome_trace
from repro.obs.events import FaultInject, RecordingSink, ResyncRound

#: Experiment size per scale: (nodes, ranks/node, horizon s, resync age s).
_SCALE = {
    "quick": (4, 2, 50.0, 8.0),
    "default": (8, 4, 120.0, 10.0),
}

DEFAULT_SCENARIO = "ntp_step"


def run(
    scale: str = "quick",
    seed: int = 0,
    scenario: str = DEFAULT_SCENARIO,
    jobs: int | None = 1,
) -> dict[str, RecoveryReport]:
    """Run the with/without-resync comparison for one preset scenario."""
    num_nodes, ranks_per_node, horizon, resync_age = _SCALE[scale]
    schedule = make_scenario(scenario)
    return compare_recovery(
        schedule,
        resync_age=resync_age,
        jobs=jobs,
        horizon=horizon,
        num_nodes=num_nodes,
        ranks_per_node=ranks_per_node,
        seed=seed,
    )


def format_result(reports: dict[str, RecoveryReport]) -> str:
    """Phase table for both policies plus the recovery verdict."""
    base, resync = reports["baseline"], reports["resync"]
    lines = [
        f"Fault recovery — scenario '{base.scenario}', "
        f"{base.horizon:g}s horizon, seed {base.seed}",
        f"  algorithm: {base.algorithm}",
        f"  resync policy: {resync.algorithm} "
        f"({resync.resync_rounds} rounds)",
        "",
        f"  {'policy':<10} {'phase':<8} {'n':>4} {'max err':>12} "
        f"{'p95 err':>12} {'mean err':>12}",
    ]
    for label, report in (("baseline", base), ("resync", resync)):
        for phase in ("before", "during", "after"):
            stats = report.phases.get(phase)
            if stats is None or stats.nsamples == 0:
                continue
            lines.append(
                f"  {label:<10} {phase:<8} {stats.nsamples:>4} "
                f"{stats.max_error:>12.3g} {stats.p95_error:>12.3g} "
                f"{stats.mean_error:>12.3g}"
            )
    lines.append("")
    lines.append(
        f"  tail max error (last 25% of horizon): "
        f"baseline {base.tail_max():.3g}s vs resync {resync.tail_max():.3g}s"
    )
    return "\n".join(lines)


def export_chrome_traces(
    out_dir: str,
    scale: str = "quick",
    seed: int = 0,
    scenario: str = DEFAULT_SCENARIO,
) -> dict:
    """Re-run the resync variant recording events; export the trace.

    The exported file carries the fault windows as ``cat="fault"`` spans
    on their own track, next to the per-rank collective/block slices and
    ``resync_round`` instants — load it in https://ui.perfetto.dev.
    """
    os.makedirs(out_dir, exist_ok=True)
    num_nodes, ranks_per_node, horizon, resync_age = _SCALE[scale]
    schedule = make_scenario(scenario)
    sink = RecordingSink()
    with run_context(sink=sink):
        run_recovery(
            schedule,
            resync_age=resync_age,
            horizon=horizon,
            num_nodes=num_nodes,
            ranks_per_node=ranks_per_node,
            seed=seed,
        )
    path = os.path.join(out_dir, f"fault_recovery_{scenario}.json")
    nrecords = export_chrome_trace(path, engine_events=sink.events)
    return {
        "path": path,
        "records": nrecords,
        "fault_events": len(sink.of_type(FaultInject)),
        "resync_events": len(sink.of_type(ResyncRound)),
    }
