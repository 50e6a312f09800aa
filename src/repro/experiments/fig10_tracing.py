"""Fig. 10: Gantt charts of one AMG2013 MPI_Allreduce, four clock setups.

The AMG-like loop (80 % of time in 8 B allreduces) runs under a tracing
library configured with ``clock_gettime`` or ``gettimeofday`` as the time
source, each with either the raw local clock or the H2HCA global clock.
The 10th iteration's allreduce is extracted as a Gantt chart.

Expected shapes:

* local ``clock_gettime``: start offsets ~1e10 µs (boot-time differences)
  — events invisible (Fig. 10b).
* local ``gettimeofday``: offsets ~100 µs — events visible but skewed
  (Fig. 10d).
* global clock on either source: events line up within a few µs; processes
  spend ~tens of µs in MPI_Allreduce, independent of the source
  (Figs. 10a/10c).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import Table, format_table
from repro.cluster.machines import JUPITER
from repro.experiments.common import Scale, resolve_scale
from repro.obs.chrome_trace import export_chrome_trace
from repro.obs.events import RecordingSink
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME, GETTIMEOFDAY
from repro.sync.hierarchical import h2hca
from repro.trace.amg import AMGConfig, amg_iteration_loop
from repro.trace.gantt import GanttBar, gantt_bars, start_spread, visibility_ratio
from repro.trace.tracer import Tracer

SETUPS = (
    ("clock_gettime", "global"),
    ("clock_gettime", "local"),
    ("gettimeofday", "global"),
    ("gettimeofday", "local"),
)

#: "the 10th iteration" of the paper (0-based index 9).
ITERATION = 9

SOURCES = {"clock_gettime": CLOCK_GETTIME, "gettimeofday": GETTIMEOFDAY}


@dataclass
class Fig10Result:
    nprocs: int
    #: (source, clock_kind) -> Gantt bars of the traced iteration.
    charts: dict[tuple[str, str], list[GanttBar]] = field(
        default_factory=dict
    )

    def visibility(self, source: str, kind: str) -> float:
        return visibility_ratio(self.charts[(source, kind)])

    def spread(self, source: str, kind: str) -> float:
        return start_spread(self.charts[(source, kind)])


def _traced_amg(
    sc: Scale, source_name: str, kind: str, seed: int, sink=None
):
    """One seeded traced AMG run on one ``(source, kind)`` setup.

    ``kind="global"`` syncs with H2HCA first and traces through the
    synced clocks.  Each rank returns ``(trace events gathered on rank
    0, its clock)``; returns the simulation result and the sync instance.
    """
    # Paper: 27 nodes × 8 ranks; scaled to the campaign node budget.
    machine = JUPITER.machine(max(4, sc.num_nodes // 2), sc.ranks_per_node)
    amg = AMGConfig(niterations=max(12, ITERATION + 2))
    sync_alg = h2hca(nfitpoints=sc.nfitpoints,
                     fitpoint_spacing=sc.fitpoint_spacing)

    def main(ctx, comm):
        if kind == "global":
            clock = yield from sync_alg.sync_clocks(
                comm, ctx.hardware_clock
            )
        else:
            clock = ctx.hardware_clock
        tracer = Tracer(clock, comm.rank)
        yield from amg_iteration_loop(comm, tracer, amg)
        events = yield from tracer.gather_events(comm)
        return events, clock

    sim = Simulation(
        machine=machine,
        network=JUPITER.network(),
        time_source=SOURCES[source_name],
        seed=seed,
        sink=sink,
    )
    return sim.run(main), sync_alg


def run(scale: str | Scale = "quick", seed: int = 0) -> Fig10Result:
    sc = resolve_scale(scale)
    charts = {}
    for source_name, kind in SETUPS:
        sim_result, _ = _traced_amg(sc, source_name, kind, seed)
        charts[(source_name, kind)] = gantt_bars(
            sim_result.values[0][0], "MPI_Allreduce", ITERATION
        )
    return Fig10Result(nprocs=len(sim_result.values), charts=charts)


def export_chrome_traces(
    out_dir: str, scale: str | Scale = "quick", seed: int = 0
) -> dict:
    """One seeded H2HCA tracing run, exported as two Chrome trace files.

    Runs the ``("clock_gettime", "global")`` setup once with an engine
    :class:`RecordingSink` attached, then writes

    * ``fig10_raw_local_clock.json`` — every span re-read through its
      rank's *hardware* clock (the skewed view of Fig. 10b/10d), and
    * ``fig10_global_clock.json`` — the same spans re-read through the
      H2HCA-synchronized logical clocks (the corrected view of
      Fig. 10a/10c).

    Load both in https://ui.perfetto.dev to see the paper's before/after
    diff.  Returns a dict with the file paths, the engine counter snapshot
    and the sync algorithm's per-level round summary.
    """
    sink = RecordingSink()
    result, sync_alg = _traced_amg(
        resolve_scale(scale), "clock_gettime", "global", seed, sink=sink
    )
    os.makedirs(out_dir, exist_ok=True)
    info = {
        "records": {},
        "engine": result.engine_stats,
        "sync": sync_alg.sync_stats_summary(),
    }
    for key, clocks in (
        ("raw_local_clock", result.clocks),
        ("global_clock", [clk for (_ev, clk) in result.values]),
    ):
        path = info[key] = os.path.join(out_dir, f"fig10_{key}.json")
        info["records"][key] = export_chrome_trace(
            path,
            trace_events=result.values[0][0],
            engine_events=sink.events,
            clock_of=clocks.__getitem__,
            include_messages=False,
        )
    return info


def format_result(result: Fig10Result) -> str:
    table = Table(
        title=(
            f"Fig. 10: 10th MPI_Allreduce of the AMG loop "
            f"({result.nprocs} processes, Jupiter)"
        ),
        columns=["time source", "clock", "start spread [us]",
                 "median duration [us]", "visible?"],
    )
    for source, kind in SETUPS:
        bars = result.charts[(source, kind)]
        dur = float(np.median([b.duration for b in bars])) * 1e6
        vis = result.visibility(source, kind)
        table.add_row(
            source,
            kind,
            f"{result.spread(source, kind) * 1e6:.3g}",
            f"{dur:.2f}",
            "yes" if vis > 0.05 else "NO",
        )
    return format_table(table)
