"""The run record: one self-describing directory per CLI invocation.

``--record DIR`` attaches a metrics registry and a clock-health telemetry
bank to every simulated job and writes ``manifest.json`` (the one
description of the run) and the health ``report.json`` + ``report.html``
into DIR, which must be new or empty.  Each switch adds one instrument
and its artifact: ``--check`` the report-mode sanitizer, whose one
report the record holds (``check_report.json``, exit status 1 if
anything was flagged),
``--profile`` the self-profiler (``profile.json`` +
``profile.speedscope.json``), ``--trace`` a span recorder tee'd with an
event counter (``critical_path.json``, the depth series in the health
report, and the Perfetto files of ``fig10`` / ``fault_recovery``).
Everything but the manifest's ``jobs``/``wall_s`` and report.json's
``generated_at`` is byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess

import numpy as np

from repro._version import __version__
from repro.check.sanitizer import CheckReport, TeeSink
from repro.context import run_context
from repro.experiments import fault_recovery, fig10_tracing
from repro.obs.causal import (
    analyze_recorder,
    format_critical_path,
    write_critical_path,
)
from repro.obs.events import CountingSink
from repro.obs.health import DEPTH_METRIC, evaluate_health
from repro.obs.metrics import MetricsRegistry, format_summary
from repro.obs.report import EXCLUDED_METRICS, build_report, write_report
from repro.obs.spans import SpanRecorder
from repro.obs.timeseries import TimeSeriesBank
from repro.prof import Profiler, format_table, top_zones, write_profile

#: Schema version of manifest.json (bump on breaking layout changes).
MANIFEST_VERSION = 1


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the source tree, or None."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_description(args: argparse.Namespace, targets: list[str]) -> dict:
    """What produced the results: never how fast or on how many workers."""
    run = {"targets": targets, "scale": args.scale, "seed": args.seed}
    if "fault_recovery" in targets:
        run["scenario"] = args.scenario
    if "service_slo" in targets:
        run["slo"] = args.slo
    run.update(check=args.check, profile=args.profile, trace=args.trace)
    return run


class Record:
    """The instruments of one ``--record`` run and the files they leave."""

    def __init__(self, args: argparse.Namespace, targets: list[str]):
        self.args = args
        self.dir = args.record
        self.run = run_description(args, targets)
        self.metrics = MetricsRegistry()
        self.bank = TimeSeriesBank()
        self.profiler = Profiler() if args.profile else None
        self.counts = CountingSink() if args.trace else None
        self.recorder = SpanRecorder() if args.trace else None
        self.check_report = (
            CheckReport(label="aggregate") if args.check else None
        )
        self.artifacts: list[str] = []

    def context(self):
        """The run context every target runs under."""
        return run_context(
            # run_jobs replays each job's event stream into the tee, so
            # both parts see every event under --jobs N as well.
            sink=TeeSink(self.counts, self.recorder) if self.args.trace
            else None,
            metrics=self.metrics,
            timeseries=self.bank,
            profiler=self.profiler,
            check="report" if self.args.check else None,
            check_report=self.check_report,
        )

    def _write_json(self, name: str, doc: dict) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def _wrote(self, *paths: str) -> None:
        self.artifacts.extend(os.path.basename(p) for p in paths)

    def finish(self, wall_s: dict[str, float]) -> int:
        """Write and print every artifact; exit status 1 if flagged."""
        if self.args.trace:
            self._export_perfetto()
            self._print_obs_summary()
        if self.profiler is not None:
            paths = write_profile(self.profiler, self.dir)
            self._wrote(*paths)
            print("=== simulator self-profile ===")
            print(format_table(self.profiler))
            print(f"profile.json: {paths[0]}")
            print(f"speedscope: {paths[1]} "
                  "(open in https://www.speedscope.app)")
        analyses = None
        if self.recorder is not None:
            analyses = analyze_recorder(self.recorder)
            path = write_critical_path(
                self.dir, analyses, event_counts=self.counts.counts
            )
            self._wrote(path)
            print("=== sync-round critical path ===")
            print(format_critical_path(analyses))
            print(f"critical_path.json: {path}")
            # Feed the measured depth ratios to the depth_anomaly
            # detector before the health verdict is computed.
            for entry in analyses:
                self.bank.sample(
                    DEPTH_METRIC, entry["duration_s"],
                    entry["depth"]["ratio"],
                )
        self._write_health_report(analyses)
        status = 0
        report = self.check_report
        if report is not None:
            path = self._write_json("check_report.json", report.to_dict())
            self._wrote(path)
            print("=== sanitizer report ===")
            print(f"runs checked: {report.runs}, "
                  f"events: {report.events_checked}, "
                  f"violations: {len(report.violations)}"
                  + (f" (+{report.dropped} dropped)" if report.dropped
                     else ""))
            print(f"check_report.json: {path}")
            if not report.ok:
                print(report.format_text())
                status = 1
        self._write_manifest(wall_s)
        return status

    def _export_perfetto(self) -> None:
        """Re-run fig10 / fault_recovery unhooked into Perfetto files."""
        args, targets = self.args, self.run["targets"]
        if "fig10" in targets:
            info = fig10_tracing.export_chrome_traces(
                self.dir, scale=args.scale, seed=args.seed
            )
            self._wrote(info["raw_local_clock"], info["global_clock"])
            print("=== chrome trace export "
                  "(load in https://ui.perfetto.dev) ===")
            for key in ("raw_local_clock", "global_clock"):
                print(f"{key}: {info[key]} ({info['records'][key]} records)")
            eng = info["engine"]
            print(f"engine: {eng['messages_delivered']} messages, "
                  f"{eng['bytes_delivered']:.0f} bytes delivered")
            for level, stats in sorted(info["sync"].items()):
                print(f"sync[{level}]: rounds={stats['rounds']:.0f} "
                      f"mean_rtt={stats['mean_rtt']:.3g}s "
                      f"max_abs_residual={stats['max_abs_residual']:.3g}s")
        if "fault_recovery" in targets:
            info = fault_recovery.export_chrome_traces(
                self.dir, scale=args.scale, seed=args.seed,
                scenario=args.scenario,
            )
            self._wrote(info["path"])
            print("=== fault-recovery chrome trace "
                  "(load in https://ui.perfetto.dev) ===")
            print(f"{info['path']}: {info['records']} records, "
                  f"{info['fault_events']} fault spans, "
                  f"{info['resync_events']} resync rounds")

    def _print_obs_summary(self) -> None:
        counts = self.counts.counts
        print("=== observability summary ===")
        print(f"engine events: {sum(counts.values())}")
        for name in sorted(counts):
            print(f"  {name}: {counts[name]}")
        metrics_text = format_summary(self.metrics)
        if metrics_text:
            print("metrics:")
            for line in metrics_text.splitlines():
                print(f"  {line}")
        if self.profiler is not None and self.profiler.total_ns() > 0:
            print("slowest zones (self time):")
            for row in top_zones(self.profiler, top=5):
                print(f"  {row['path']}: {row['self_ns'] / 1e6:.2f}ms self "
                      f"({row['count']}x)")

    def _write_health_report(self, analyses: list[dict] | None) -> None:
        verdict = evaluate_health(self.bank)
        report = build_report(
            bank=self.bank,
            metrics=self.metrics,
            verdict=verdict,
            critical_path=analyses,
            meta=self.run,
        )
        json_path, html_path = write_report(report, self.dir)
        self._wrote(json_path, html_path)
        print("=== clock-health report ===")
        print(f"status: {verdict.status} ({len(verdict.findings)} findings, "
              f"{verdict.series_scanned} error series scanned)")
        for name, summary in verdict.detectors.items():
            print(f"  {name}: {summary['findings']} findings "
                  f"(worst {summary['worst']})")
        print(f"report.json: {json_path}")
        print(f"report.html: {html_path}")

    def _write_manifest(self, wall_s: dict[str, float]) -> None:
        names = [n for n in self.metrics.names() if n not in EXCLUDED_METRICS]
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "run": self.run,
            "jobs": self.args.jobs,
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__, "repro": __version__},
            "git": git_describe(),
            "wall_s": {name: round(s, 3) for name, s in wall_s.items()},
            "artifacts": sorted(self.artifacts),
            "metrics": format_summary(self.metrics, names).splitlines(),
        }
        path = self._write_json("manifest.json", manifest)
        print(f"manifest.json: {path}")
