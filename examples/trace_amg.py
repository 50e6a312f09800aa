"""Tracing AMG2013's MPI_Allreduce with local vs global clocks (Fig. 10).

Runs the AMG-like solver loop twice under a tracing library: once with raw
``clock_gettime`` timestamps and once with an H2HCA global clock.  For the
10th iteration's allreduce it prints the per-process Gantt bars — with
local clocks the start offsets are astronomically large (node boot-time
differences), with the global clock the ~10 us events line up.

Run:  python examples/trace_amg.py
"""

from repro.analysis.reporting import Table, format_table
from repro.cluster import jupiter
from repro.simmpi import Simulation
from repro.sync.hierarchical import h2hca
from repro.trace.amg import AMGConfig, amg_iteration_loop
from repro.trace.gantt import gantt_bars, start_spread, visibility_ratio
from repro.trace.tracer import Tracer

ITERATION = 9  # the paper's "10th iteration"


def make_main(use_global_clock):
    def main(ctx, comm):
        if use_global_clock:
            sync = h2hca(nfitpoints=30, fitpoint_spacing=2e-3)
            clock = yield from sync.sync_clocks(comm, ctx.hardware_clock)
        else:
            clock = ctx.hardware_clock
        tracer = Tracer(clock, comm.rank)
        yield from amg_iteration_loop(
            comm, tracer, AMGConfig(niterations=12)
        )
        events = yield from tracer.gather_events(comm)
        return events

    return main


def run_once(use_global_clock):
    spec = jupiter()
    sim = Simulation(
        machine=spec.machine(num_nodes=9, ranks_per_node=8),
        network=spec.network(),
        seed=11,
    )
    events = sim.run(make_main(use_global_clock)).values[0]
    return events, gantt_bars(events, "MPI_Allreduce", ITERATION)


if __name__ == "__main__":
    from repro.obs.chrome_trace import export_chrome_trace

    for label, use_global in (("local clock_gettime", False),
                              ("H2HCA global clock", True)):
        events, bars = run_once(use_global)
        print(f"\n=== 10th MPI_Allreduce, {label} ===")
        spread = start_spread(bars)
        vis = visibility_ratio(bars)
        print(f"start-time spread across processes: {spread * 1e6:.3g} us")
        print(f"visibility (duration / spread)    : {vis:.3g} "
              f"({'events visible' if vis > 0.05 else 'events INVISIBLE'})")
        table = Table(
            title="first 8 processes",
            columns=["rank", "start [us]", "duration [us]"],
        )
        for bar in bars[:8]:
            table.add_row(bar.rank, f"{bar.start * 1e6:.3g}",
                          f"{bar.duration * 1e6:.2f}")
        print(format_table(table))
        if use_global:
            # Viewable in any Perfetto/chrome://tracing-style viewer.
            path = "amg_trace_global_clock.json"
            export_chrome_trace(path, trace_events=events)
            print(f"(full trace written to {path})")
