"""Command-line runner: ``python -m repro.experiments <target> [options]``.

Targets are the paper's tables/figures (``table1``, ``fig2`` … ``fig10``)
or ``all``.  Example::

    python -m repro.experiments fig8 --scale quick --seed 1

``--check`` runs every simulated job under the strict sanitizer
(:mod:`repro.check`, DESIGN.md §11).  ``--record DIR`` leaves one
self-describing record of the run, and ``--profile`` / ``--trace`` add
instruments to it (:mod:`repro.experiments.record`).  An option only
some targets read (``--scenario``, ``--slo``) is a usage error on any
other target; ``all`` accepts both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from repro.context import run_context
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
from repro.experiments.record import Record
from repro.faults.scenarios import SCENARIOS, make_scenario


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
}


def _number(kind, ok, rule: str):
    """Argument type: a ``kind`` value for which ``ok`` holds."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is not None and ok(value):
            return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


#: ``--seed`` / ``--jobs``.
_COUNT = _number(int, lambda v: v >= 0, "an integer >= 0")
#: ``--slo`` (NaN and inf would pass a bare ``> 0`` test).
_SECONDS = _number(
    float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0"
)


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
    parser.add_argument("--seed", type=_COUNT, default=0)
    parser.add_argument(
        "--jobs", type=_COUNT, default=1, metavar="N",
        help="run independent simulations of campaign-based targets "
             "(fig3-fig6, fault_recovery, scenario_degradation, "
             "service_slo) on N worker processes; 0 means one per CPU.  "
             "Results and records are identical to --jobs 1.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="strict simulation sanitizer (repro.check) on every job; "
             "with --record, report mode into DIR/check_report.json "
             "(exit 1 if anything was flagged)",
    )
    parser.add_argument(
        "--record",
        metavar="DIR",
        help="attach metrics and a clock-health telemetry bank to every "
             "simulated job and write manifest.json, report.json and "
             "report.html under DIR, which must be new or empty",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="with --record: self-profile the simulator into "
             "profile.json + profile.speedscope.json",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="with --record: trace causal spans into critical_path.json "
             "(and Perfetto files for fig10 and fault_recovery)",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        help="fault scenario for the fault_recovery target "
             f"(default {fault_recovery.DEFAULT_SCENARIO})",
    )
    parser.add_argument(
        "--slo",
        type=_SECONDS,
        metavar="SECONDS",
        help="clock-error SLO for the service_slo target "
             f"(default {service_slo.DEFAULT_SLO:g}s)",
    )
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; an option the target would not read is an error,
    and so are a churn preset for the single-run ``fault_recovery``, an
    instrument switch without ``--record`` and a used record directory."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for switch in ("profile", "trace"):
        if getattr(args, switch) and args.record is None:
            parser.error(f"--{switch} writes into a record: add --record DIR")
    if args.record is not None and os.path.exists(args.record) and (
        not os.path.isdir(args.record) or os.listdir(args.record)
    ):
        parser.error(
            f"--record {args.record} exists and is not an empty "
            f"directory: a record is written once, into a new directory"
        )
    for flag, readers in TARGET_FLAGS.items():
        if (
            getattr(args, flag) is not None
            and args.target not in (*readers, "all")
        ):
            parser.error(
                f"--{flag} is read only by "
                f"{', '.join(readers)} (and all), not by {args.target}"
            )
    if args.scenario and make_scenario(args.scenario).of_kind("churn"):
        parser.error(
            f"--scenario {args.scenario} holds a churn entry: churn acts "
            f"between the rounds of a scenario cell (see the "
            f"scenario_degradation target), not inside one recovery run"
        )
    if args.scenario is None:
        args.scenario = fault_recovery.DEFAULT_SCENARIO
    if args.slo is None:
        args.slo = service_slo.DEFAULT_SLO
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    targets = sorted(TARGETS) if args.target == "all" else [args.target]
    record = Record(args, targets) if args.record is not None else None
    wall_s: dict[str, float] = {}
    with (
        record.context() if record is not None
        else run_context(check="strict" if args.check else None)
    ):
        for name in targets:
            t0 = time.time()
            print(TARGETS[name](args))
            wall_s[name] = time.time() - t0
            print(f"[{name}: {wall_s[name]:.1f}s]\n")
    return record.finish(wall_s) if record is not None else 0


if __name__ == "__main__":
    sys.exit(main())
