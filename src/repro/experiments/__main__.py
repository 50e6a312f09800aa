"""Command-line runner: ``python -m repro.experiments <target> [options]``.

Targets are the paper's tables/figures (``table1``, ``fig2`` … ``fig10``)
or ``all``.  Example::

    python -m repro.experiments fig8 --scale quick --seed 1

Observability options (see :mod:`repro.obs`):

* ``--obs-summary`` installs a process-wide event sink + metrics registry
  for the run and prints event counts and metric aggregates afterwards.
* ``--health-report DIR`` installs a clock-health telemetry bank, runs
  the anomaly detectors over the sampled series afterwards, and writes a
  self-contained ``report.html`` + machine-readable ``report.json``.
* ``--profile DIR`` self-profiles the simulator (see :mod:`repro.prof`)
  and writes ``profile.json`` + a speedscope flamegraph under DIR; the
  profiled simulation's outputs are bit-identical to an unprofiled run.
* ``--critical-path DIR`` attaches a causal span recorder (see
  :mod:`repro.obs.spans`), extracts each traced run's critical path and
  sync-round depth afterwards (:mod:`repro.obs.causal`), writes
  ``critical_path.json`` under DIR and prints the top-N path table.
  Combined with ``--health-report`` the measured depth ratios feed the
  ``depth_anomaly`` detector and a report section.
* ``--chrome-trace-dir DIR`` (with the ``fig10`` target) additionally
  exports the traced AMG run as Chrome trace-event JSON, once through the
  raw local clocks and once through the H2HCA global clocks — open both
  in https://ui.perfetto.dev for the paper's skewed-vs-corrected diff.

An option only some targets read (``--scenario``, ``--slo``,
``--chrome-trace-dir``) is a usage error on any other target; ``all``
accepts all of them.

Correctness checking (see :mod:`repro.check` and DESIGN.md §11):

* ``--check`` runs every simulated job under the strict sanitizer —
  the first broken engine invariant aborts the run with a typed
  :class:`~repro.errors.InvariantViolation`.
* ``--check-report DIR`` runs in report mode instead: violations
  accumulate per job, and an aggregated ``check_report.json`` is
  written under DIR afterwards (exit status 1 if anything was flagged).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.check.config import write_aggregate
from repro.check.sanitizer import TeeSink
from repro.context import run_context
from repro.obs.causal import (
    analyze_recorder,
    format_critical_path,
    write_critical_path,
)
from repro.obs.events import CountingSink
from repro.obs.health import DEPTH_METRIC, evaluate_health
from repro.obs.spans import SpanRecorder
from repro.obs.metrics import MetricsRegistry, format_summary
from repro.obs.report import build_report, write_report
from repro.obs.timeseries import TimeSeriesBank
from repro.prof import Profiler, format_table, top_zones, write_profile
from repro.experiments import (
    fault_recovery,
    fig2_drift,
    fig3_flat_algorithms,
    fig4_hier_jupiter,
    fig5_hier_hydra,
    fig6_hier_titan,
    fig7_barrier_impact,
    fig8_imbalance,
    fig9_roundtime,
    fig10_tracing,
    scenario_degradation,
    service_slo,
    table1_machines,
)
from repro.faults.scenarios import SCENARIOS


def _run_table1(args: argparse.Namespace) -> str:
    return table1_machines.format_result(
        table1_machines.run(seed=args.seed)
    )


def _run_fig2(args: argparse.Namespace) -> str:
    duration = 60.0 if args.scale == "quick" else 200.0
    nodes = 4 if args.scale == "quick" else 10
    return fig2_drift.format_result(
        fig2_drift.run(num_nodes=nodes, duration=duration, interval=1.0,
                       seed=args.seed)
    )


def _simple(module, *reads: str):
    """Runner of ``module.run(scale, seed, ...)``.

    ``reads`` names the further parsed options the target's ``run``
    takes (``jobs``, ``scenario``, ``slo``).
    """

    def runner(args: argparse.Namespace) -> str:
        kwargs = {name: getattr(args, name) for name in reads}
        return module.format_result(
            module.run(scale=args.scale, seed=args.seed, **kwargs)
        )

    return runner


TARGETS = {
    "table1": _run_table1,
    "fig2": _run_fig2,
    # Targets reading "jobs" fan their independent simulations out over
    # --jobs worker processes; results are bit-identical to --jobs 1.
    "fault_recovery": _simple(fault_recovery, "jobs", "scenario"),
    "service_slo": _simple(service_slo, "jobs", "slo"),
    "fig3": _simple(fig3_flat_algorithms, "jobs"),
    "fig4": _simple(fig4_hier_jupiter, "jobs"),
    "fig5": _simple(fig5_hier_hydra, "jobs"),
    "fig6": _simple(fig6_hier_titan, "jobs"),
    "fig7": _simple(fig7_barrier_impact),
    "fig8": _simple(fig8_imbalance),
    "fig9": _simple(fig9_roundtime),
    "fig10": _simple(fig10_tracing),
    # Adversarial degradation tables (scenario presets x algorithms).
    "scenario_degradation": _simple(scenario_degradation, "jobs"),
}

#: Options only some targets read, with those targets.  Any other
#: target (``all`` runs every one) rejects the option.
TARGET_FLAGS = {
    "scenario": ("fault_recovery",),
    "slo": ("service_slo",),
    "chrome_trace_dir": ("fig10", "fault_recovery"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table/figure of the paper.",
    )
    parser.add_argument(
        "target",
        choices=sorted(TARGETS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument("--scale", default="quick",
                        choices=["quick", "default"],
                        help="experiment size (see EXPERIMENTS.md)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent simulations of campaign-based targets "
             "(fig3-fig6, fault_recovery, scenario_degradation, "
             "service_slo) on N worker processes; 0 means one per CPU.  "
             "Results are identical to --jobs 1.",
    )
    parser.add_argument(
        "--obs-summary",
        action="store_true",
        help="attach an event sink + metrics registry to every simulated "
             "job and print aggregate counts afterwards",
    )
    parser.add_argument(
        "--health-report",
        metavar="DIR",
        help="attach a clock-health telemetry bank to every simulated "
             "job, run the anomaly detectors afterwards, and write "
             "report.html + report.json under DIR (byte-identical for "
             "any --jobs value, modulo the generated_at timestamp)",
    )
    parser.add_argument(
        "--chrome-trace-dir",
        metavar="DIR",
        help="with the fig10 target: also export the traced AMG run as "
             "Chrome trace JSON (raw local clocks + H2HCA global clocks); "
             "with fault_recovery: export the faulted run with fault spans",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        help="self-profile the simulator (repro.prof wall-time zones) and "
             "write profile.json + profile.speedscope.json under DIR; "
             "per-job profiles are merged under --jobs N.  Profiling only "
             "reads the host clock, so simulated results stay identical.",
    )
    parser.add_argument(
        "--critical-path",
        metavar="DIR",
        help="attach a causal span recorder to every simulated job, "
             "extract per-run critical paths and sync-round depth "
             "afterwards, and write critical_path.json under DIR "
             "(byte-identical for any --jobs value)",
    )
    check = parser.add_mutually_exclusive_group()
    check.add_argument(
        "--check",
        action="store_true",
        help="run every simulated job under the strict simulation "
             "sanitizer (repro.check): abort on the first broken engine "
             "invariant",
    )
    check.add_argument(
        "--check-report",
        metavar="DIR",
        help="like --check, but accumulate violations instead of "
             "aborting and write an aggregated check_report.json under "
             "DIR; exits 1 if any violation was recorded",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        help="fault scenario for the fault_recovery target "
             f"(default {fault_recovery.DEFAULT_SCENARIO})",
    )
    parser.add_argument(
        "--slo",
        type=float,
        metavar="SECONDS",
        help="clock-error SLO for the service_slo target "
             f"(default {service_slo.DEFAULT_SLO:g}s)",
    )
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; an option the target would not read is an error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, readers in TARGET_FLAGS.items():
        if (
            getattr(args, flag) is not None
            and args.target not in (*readers, "all")
        ):
            parser.error(
                f"--{flag.replace('_', '-')} is read only by "
                f"{', '.join(readers)} (and all), not by {args.target}"
            )
    if args.scenario is None:
        args.scenario = fault_recovery.DEFAULT_SCENARIO
    if args.slo is None:
        args.slo = service_slo.DEFAULT_SLO
    return args


def _print_obs_summary(
    sink: CountingSink,
    registry: MetricsRegistry,
    profiler: Profiler | None = None,
) -> None:
    print("=== observability summary ===")
    total = sum(sink.counts.values())
    print(f"engine events: {total}")
    for name in sorted(sink.counts):
        print(f"  {name}: {sink.counts[name]}")
    metrics_text = format_summary(registry)
    if metrics_text:
        print("metrics:")
        for line in metrics_text.splitlines():
            print(f"  {line}")
    if profiler is not None and profiler.total_ns() > 0:
        print("slowest zones (self time):")
        for row in top_zones(profiler, top=5):
            print(
                f"  {row['path']}: {row['self_ns'] / 1e6:.2f}ms self "
                f"({row['count']}x)"
            )


def _write_health_report(
    out_dir: str,
    targets: list[str],
    args: argparse.Namespace,
    bank: TimeSeriesBank,
    registry: MetricsRegistry,
    critical_path: list[dict] | None = None,
) -> None:
    verdict = evaluate_health(bank)
    report = build_report(
        bank=bank,
        metrics=registry,
        verdict=verdict,
        critical_path=critical_path,
        meta={
            "targets": targets,
            "scale": args.scale,
            "seed": args.seed,
            "scenario": (
                args.scenario if "fault_recovery" in targets else None
            ),
            "slo": args.slo if "service_slo" in targets else None,
        },
    )
    json_path, html_path = write_report(report, out_dir)
    print("=== clock-health report ===")
    print(
        f"status: {verdict.status} ({len(verdict.findings)} findings, "
        f"{verdict.series_scanned} error series scanned)"
    )
    for name, summary in verdict.detectors.items():
        print(
            f"  {name}: {summary['findings']} findings "
            f"(worst {summary['worst']})"
        )
    print(f"report.json: {json_path}")
    print(f"report.html: {html_path}")


def _export_chrome_traces(out_dir: str, scale: str, seed: int) -> None:
    info = fig10_tracing.export_chrome_traces(
        out_dir, scale=scale, seed=seed
    )
    print("=== chrome trace export (load in https://ui.perfetto.dev) ===")
    for key in ("raw_local_clock", "global_clock"):
        print(f"{key}: {info[key]} ({info['records'][key]} records)")
    eng = info["engine"]
    print(f"engine: {eng['messages_delivered']} messages, "
          f"{eng['bytes_delivered']:.0f} bytes delivered")
    for level, stats in sorted(info["sync"].items()):
        print(f"sync[{level}]: rounds={stats['rounds']:.0f} "
              f"mean_rtt={stats['mean_rtt']:.3g}s "
              f"max_abs_residual={stats['max_abs_residual']:.3g}s")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    targets = sorted(TARGETS) if args.target == "all" else [args.target]

    def run_targets() -> None:
        for name in targets:
            t0 = time.time()
            print(TARGETS[name](args))
            print(f"[{name}: {time.time() - t0:.1f}s]\n")
        if args.chrome_trace_dir and "fig10" in targets:
            _export_chrome_traces(
                args.chrome_trace_dir, args.scale, args.seed
            )
        if args.chrome_trace_dir and "fault_recovery" in targets:
            info = fault_recovery.export_chrome_traces(
                args.chrome_trace_dir, scale=args.scale, seed=args.seed,
                scenario=args.scenario,
            )
            print("=== fault-recovery chrome trace "
                  "(load in https://ui.perfetto.dev) ===")
            print(f"{info['path']}: {info['records']} records, "
                  f"{info['fault_events']} fault spans, "
                  f"{info['resync_events']} resync rounds")

    sink = CountingSink() if args.obs_summary else None
    recorder = SpanRecorder() if args.critical_path else None
    # One registry serves both outputs when both are requested.
    registry = (
        MetricsRegistry() if args.obs_summary or args.health_report
        else None
    )
    bank = TimeSeriesBank() if args.health_report else None
    profiler = Profiler() if args.profile else None
    if sink is not None and recorder is not None:
        # Tee counts + spans off one stream.  run_jobs replays the full
        # per-job event stream into non-counting parents, so both parts
        # see every event under --jobs N as well.
        run_sink = TeeSink(sink, recorder)
    else:
        run_sink = recorder if recorder is not None else sink
    with run_context(
        sink=run_sink,
        metrics=registry,
        timeseries=bank,
        profiler=profiler,
        check=(
            "strict" if args.check
            else "report" if args.check_report else None
        ),
        check_dir=args.check_report,
    ):
        run_targets()
    if args.obs_summary:
        _print_obs_summary(sink, registry, profiler)
    if args.profile:
        json_path, speedscope_path = write_profile(
            profiler, args.profile,
            meta={
                "targets": targets,
                "scale": args.scale,
                "seed": args.seed,
                "jobs": args.jobs,
            },
        )
        print("=== simulator self-profile ===")
        print(format_table(profiler))
        print(f"profile.json: {json_path}")
        print(f"speedscope: {speedscope_path} "
              "(open in https://www.speedscope.app)")
    analyses: list[dict] | None = None
    if args.critical_path:
        analyses = analyze_recorder(recorder)
        cp_path = write_critical_path(
            args.critical_path, analyses,
            meta={"targets": targets, "scale": args.scale,
                  "seed": args.seed},
        )
        print("=== sync-round critical path ===")
        print(format_critical_path(analyses))
        print(f"critical_path.json: {cp_path}")
        if bank is not None:
            # Feed the measured depth ratios to the depth_anomaly
            # detector before the health verdict is computed below.
            for entry in analyses:
                bank.sample(
                    DEPTH_METRIC,
                    entry["duration_s"],
                    entry["depth"]["ratio"],
                )
    if args.health_report:
        _write_health_report(
            args.health_report, targets, args, bank, registry,
            critical_path=analyses,
        )
    if args.check_report:
        path, merged = write_aggregate(args.check_report)
        print("=== sanitizer report ===")
        print(f"runs checked: {merged.runs}, "
              f"events: {merged.events_checked}, "
              f"violations: {len(merged.violations)}"
              + (f" (+{merged.dropped} dropped)" if merged.dropped else ""))
        print(f"check_report.json: {path}")
        if not merged.ok:
            print(merged.format_text())
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
