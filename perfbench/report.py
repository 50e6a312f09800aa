"""Summaries, recorded factors and the text tables perfbench prints."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Any, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, min, max, n.

    A run has fewer than twenty samples per timing, so no percentile
    beyond the median has ten samples past it; the spread is reported as
    quartiles and extremes instead.
    """
    q1, _q2, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def jitter(summary: dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"]


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_describe() -> str | None:
    """``git describe --always --dirty``; None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, cwd=ROOT,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def factors() -> dict[str, Any]:
    """The host factors every result file records."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "governor": _read(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
        ),
        "git": git_describe(),
    }


END_TO_END_ROWS = ("wall_s", "setup_s", "peak_rss_mb", "sim_sync_s")


def format_tables(doc: dict[str, Any]) -> str:
    """Compact text report: workload x metric, then probes and hooks."""
    lines = [
        f"========== PERFBENCH seed {doc['seed']} "
        f"({doc['mode']}) ==========",
        "host time everywhere except sim_sync_s, which is simulated seconds; "
        "the gated wall_s is the min column",
        f"{'workload':<24} {'metric':<12} {'median':>10} {'min':>10} "
        f"{'max':>10} {'jitter':>7} {'n':>3} {'failed':>6}",
    ]
    for name in doc["order"]:
        record = doc["workloads"][name]
        for metric in END_TO_END_ROWS:
            summary = record["summary"].get(metric)
            if summary is None:
                continue
            lines.append(
                f"{name if metric == 'wall_s' else '':<24} {metric:<12} "
                f"{summary['median']:>10.4f} {summary['min']:>10.4f} "
                f"{summary['max']:>10.4f} {jitter(summary) * 100:>6.1f}% "
                f"{summary['n']:>3} "
                f"{record['ops_failed'] if metric == 'wall_s' else '':>6}"
            )
        rate = ", ".join(
            f"{key} {value:,.0f}" for key, value in record["derived"].items()
        )
        lines.append(
            f"{'':<24} {rate}; {record['ops_attempted']} ops attempted"
        )
    for name in doc["order"]:
        layers = doc["workloads"][name].get("per_layer")
        if not layers:
            continue
        lines.append(f"---------- per layer: {name} (zone times are of the "
                     f"loud path: a profiler unbinds the quiet twins; "
                     f"layers reading 0 are left out)")
        for metric, value in layers.items():
            if value:
                lines.append(f"  {metric:<44} {value:>16.6g}")
    if doc.get("probes"):
        lines.append("---------- isolated probes")
        for metric, value in doc["probes"].items():
            lines.append(f"  {metric:<44} {value:>16.6g}")
    if doc.get("hooks"):
        lines.append("---------- hook table: flat HCA3 64x4, one hook / quiet")
        for metric, value in doc["hooks"].items():
            lines.append(f"  {metric:<44} {value:>16.4f}")
    load = doc["factors"]
    lines.append(
        f"load average before {load['loadavg_before']:.2f}, after "
        f"{load['loadavg_after']:.2f} on {load['cpu_count']} cpus; "
        f"git {load['git']}; python {load['python']}; numpy {load['numpy']}"
    )
    return "\n".join(lines)
