"""Self-contained clock-health run reports (HTML + JSON).

``build_report`` folds one run's telemetry — the metrics snapshot, the
time-series bank, and the health verdict — into a single plain dict;
``write_report`` serializes it to ``report.json`` (machine-readable,
byte-deterministic modulo the single ``generated_at`` wall-clock field)
and renders ``report.html``: one dependency-free file with inline-SVG
sparklines of the error trajectories, detector findings, and the
metrics table, so a CI artifact can be opened anywhere.

Determinism contract: ``report.json`` for the same campaign must be
byte-identical between ``--jobs 1`` and ``--jobs N``.  Everything
ordered is sorted; ``generated_at`` is the *only* wall-clock field and
lives at the top level so tests can pop it; metrics whose value depends
on the worker configuration (``parallel.workers``) are excluded.
"""

from __future__ import annotations

import html
import json
import os
import time

from repro.obs.health import HealthVerdict
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesBank, split_scope

#: Schema version of report.json (bump on breaking layout changes).
REPORT_VERSION = 1

#: Metrics excluded from reports because their value reflects the host
#: or worker configuration, not the simulated run (determinism contract).
EXCLUDED_METRICS = ("parallel.workers",)

#: Wall-clock fields a consumer must ignore when diffing two reports.
VOLATILE_FIELDS = ("generated_at",)


def _round(x: float) -> float:
    return round(float(x), 12)


def build_report(
    bank: TimeSeriesBank | None = None,
    metrics: MetricsRegistry | None = None,
    verdict: HealthVerdict | None = None,
    meta: dict | None = None,
    critical_path: list[dict] | None = None,
) -> dict:
    """Assemble the machine-readable report dict.

    ``meta`` describes the run for the HTML header (the CLI passes its
    record manifest's ``run`` section), never ``jobs``.  ``critical_path``
    takes the per-run analyses of :func:`repro.obs.causal.analyze_recorder`
    when the campaign was traced.
    """
    report: dict = {
        "report_version": REPORT_VERSION,
        "volatile_fields": list(VOLATILE_FIELDS),
        "meta": dict(sorted((meta or {}).items())),
    }
    if metrics is not None:
        snap = metrics.snapshot()
        for section in snap.values():
            for label in [
                label
                for label in section
                if label.split("[")[0] in EXCLUDED_METRICS
            ]:
                del section[label]
        report["metrics"] = snap
    if bank is not None:
        dump = bank.to_dict()
        for series in dump["series"]:
            series["points"] = [
                [_round(t), _round(v)] for t, v in series["points"]
            ]
        for marks in dump["markers"]:
            marks["marks"] = [
                [_round(t), label] for t, label in marks["marks"]
            ]
        report["timeseries"] = dump
    if verdict is not None:
        report["health"] = verdict.to_dict()
    if critical_path is not None:
        report["critical_path"] = critical_path
    return report


def write_report(report: dict, out_dir: str) -> tuple[str, str]:
    """Write ``report.json`` + ``report.html`` under ``out_dir``.

    The wall-clock stamp is added here (not in :func:`build_report`) so
    the assembled dict itself stays pure and diffable in tests.
    """
    os.makedirs(out_dir, exist_ok=True)
    stamped = dict(report)
    stamped["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    html_path = os.path.join(out_dir, "report.html")
    with open(html_path, "w") as fh:
        fh.write(render_html(stamped))
    return json_path, html_path


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
#: Status palette (fixed, never themed); always paired with the text
#: label so state is never color-alone.
_STATUS_COLORS = {
    "ok": "#0ca30c",
    "info": "#0ca30c",
    "warning": "#fab219",
    "serious": "#ec835a",
    "critical": "#d03b3b",
}
#: Single sequential hue for every sparkline (one measure, one hue).
_LINE_COLOR = "#2a78d6"
_MARKER_COLOR = "#ec835a"

_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px; background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 960px; margin: 0 auto; }
section {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 16px 20px; margin-bottom: 16px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 12px; }
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 4px 12px 4px 0;
  border-bottom: 1px solid #e1e0d9;
  font-variant-numeric: tabular-nums;
}
th { color: #52514e; font-weight: 600; }
.meta, .sub { color: #52514e; }
.num { text-align: right; }
.badge { font-weight: 700; }
.spark-label { color: #52514e; white-space: nowrap; }
svg text { font: 10px system-ui, sans-serif; fill: #898781; }
"""


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _status_badge(status: str) -> str:
    color = _STATUS_COLORS.get(status, "#52514e")
    glyph = "●"  # filled circle; the text label carries the meaning
    return (
        f'<span class="badge" style="color:{color}">{glyph}'
        f" {html.escape(status.upper())}</span>"
    )


def sparkline_svg(
    points: list[list[float]],
    marks: list[float] | None = None,
    width: int = 360,
    height: int = 48,
    tolerance: float | None = None,
) -> str:
    """Inline-SVG sparkline of one ``[[t, v], ...]`` series.

    Optional vertical ``marks`` (fault/resync times) and a horizontal
    ``tolerance`` guide.  Axes are recessive; the min/max annotations
    carry the scale so the sparkline stays honest without full axes.
    """
    if len(points) < 2:
        return '<span class="sub">(not enough points)</span>'
    pad = 4
    ts = [p[0] for p in points]
    vs = [p[1] for p in points]
    t_lo, t_hi = min(ts), max(ts)
    v_lo, v_hi = min(vs), max(vs)
    if tolerance is not None:
        v_lo = min(v_lo, -tolerance)
        v_hi = max(v_hi, tolerance)
    t_span = (t_hi - t_lo) or 1.0
    v_span = (v_hi - v_lo) or 1.0

    def x(t: float) -> float:
        return pad + (t - t_lo) / t_span * (width - 2 * pad)

    def y(v: float) -> float:
        return pad + (v_hi - v) / v_span * (height - 2 * pad)

    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if v_lo < 0.0 < v_hi:  # zero baseline, hairline
        zy = y(0.0)
        parts.append(
            f'<line x1="{pad}" y1="{zy:.1f}" x2="{width - pad}" '
            f'y2="{zy:.1f}" stroke="#c3c2b7" stroke-width="1"/>'
        )
    if tolerance is not None:
        for tol in (tolerance, -tolerance):
            ty = y(tol)
            parts.append(
                f'<line x1="{pad}" y1="{ty:.1f}" x2="{width - pad}" '
                f'y2="{ty:.1f}" stroke="#e1e0d9" stroke-width="1" '
                'stroke-dasharray="3 3"/>'
            )
    for mark in marks or []:
        if t_lo <= mark <= t_hi:
            mx = x(mark)
            parts.append(
                f'<line x1="{mx:.1f}" y1="{pad}" x2="{mx:.1f}" '
                f'y2="{height - pad}" stroke="{_MARKER_COLOR}" '
                'stroke-width="1" stroke-dasharray="2 2"/>'
            )
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{x(t):.1f},{y(v):.1f}"
        for i, (t, v) in enumerate(zip(ts, vs))
    )
    parts.append(
        f'<path d="{path}" fill="none" stroke="{_LINE_COLOR}" '
        'stroke-width="2" stroke-linejoin="round"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _render_health(healthd: dict) -> str:
    rows = []
    for name, summary in healthd.get("detectors", {}).items():
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f'<td class="num">{summary["findings"]}</td>'
            f"<td>{_status_badge(summary['worst'])}</td></tr>"
        )
    findings = healthd.get("findings", [])
    frows = []
    for f in findings[:50]:
        rank = "" if f["rank"] is None else str(f["rank"])
        frows.append(
            f"<tr><td>{_status_badge(f['severity'])}</td>"
            f"<td>{html.escape(f['detector'])}</td>"
            f"<td>{html.escape(f['series'])}</td>"
            f'<td class="num">{rank}</td>'
            f"<td>{html.escape(f['message'])}</td></tr>"
        )
    if len(findings) > 50:
        frows.append(
            f'<tr><td colspan="5" class="sub">… and '
            f"{len(findings) - 50} more findings (see report.json)"
            "</td></tr>"
        )
    out = [
        "<section><h2>Health verdict: "
        f"{_status_badge(healthd.get('status', 'ok'))}"
        f' <span class="sub">({healthd.get("series_scanned", 0)} error '
        "series scanned)</span></h2>",
        "<table><tr><th>Detector</th><th>Findings</th><th>Worst</th></tr>",
        *rows,
        "</table>",
    ]
    if frows:
        out += [
            "<h2 style='margin-top:16px'>Findings</h2>",
            "<table><tr><th>Severity</th><th>Detector</th><th>Series</th>"
            "<th>Rank</th><th>Detail</th></tr>",
            *frows,
            "</table>",
        ]
    out.append("</section>")
    return "".join(out)


def _render_sparklines(tsd: dict) -> str:
    # Group clock.error series by scope; one sparkline per (scope, rank).
    marks_by_scope: dict[str, list[float]] = {}
    for marker in tsd.get("markers", []):
        scope = split_scope(marker["name"])[0]
        marks_by_scope.setdefault(scope, []).extend(
            t for t, _ in marker["marks"]
        )
    rows = []
    for series in tsd.get("series", []):
        scope, metric = split_scope(series["name"])
        if not (metric == "clock.error"
                or metric.startswith("clock.error.")):
            continue
        rank = series["rank"]
        label = scope or metric
        if rank is not None:
            label += f" · rank {rank}"
        vs = [v for _, v in series["points"]]
        sub = (
            f"{series['count']} samples, "
            f"peak |err| {_fmt(max(abs(v) for v in vs) if vs else 0.0)}s"
        )
        rows.append(
            f'<tr><td class="spark-label">{html.escape(label)}'
            f'<br/><span class="sub">{sub}</span></td>'
            f"<td>{sparkline_svg(series['points'], marks_by_scope.get(scope))}"
            "</td></tr>"
        )
    if not rows:
        return ""
    return (
        "<section><h2>Clock-error trajectories "
        '<span class="sub">(blue: estimated−reference global-clock error; '
        "dashed orange: fault/resync markers)</span></h2>"
        "<table>" + "".join(rows) + "</table></section>"
    )


def _render_critical_path(analyses: list[dict]) -> str:
    """Depth table + slowest-round breakdown per traced run."""
    rows = []
    for entry in analyses:
        depth = entry.get("depth", {})
        cp = entry.get("critical_path", {})
        ratio = depth.get("ratio", 0.0)
        status = (
            "critical" if ratio >= 2.0
            else "warning" if ratio > 1.0 else "ok"
        )
        msg_s = sum(
            v for k, v in cp.get("by_kind_s", {}).items() if k != "compute"
        )
        length = cp.get("length_s") or 1.0
        rows.append(
            f'<tr><td class="num">{entry.get("run", 0)}</td>'
            f'<td class="num">{entry.get("p", 0)}</td>'
            f'<td class="num">{_fmt(entry.get("duration_s", 0.0))}</td>'
            f'<td class="num">{depth.get("level_depth", 0)}</td>'
            f'<td class="num">{depth.get("expected", 0)}</td>'
            f'<td class="num">{_fmt(ratio)}</td>'
            f'<td class="num">{100.0 * msg_s / length:.1f}%</td>'
            f'<td>{html.escape(",".join(depth.get("algorithms", [])))}'
            f"</td><td>{_status_badge(status)}</td></tr>"
        )
    out = [
        "<section><h2>Sync-round critical path "
        '<span class="sub">(measured level depth vs the structural '
        "O(log p) / O(p) bound; msg% = share of the path spent on the "
        "wire)</span></h2>",
        "<table><tr><th>Run</th><th>p</th><th>Duration (s)</th>"
        "<th>Depth</th><th>Bound</th><th>Ratio</th><th>msg%</th>"
        "<th>Algorithms</th><th>Status</th></tr>",
        *rows,
        "</table>",
    ]
    longest = max(
        analyses, key=lambda e: e.get("duration_s", 0.0), default=None
    )
    rounds = (longest or {}).get("rounds", [])[:10]
    if rounds:
        out += [
            "<h2 style='margin-top:16px'>Slowest sync rounds "
            f'<span class="sub">(run {longest.get("run", 0)})</span></h2>',
            "<table><tr><th>Algorithm</th><th>Level</th><th>Round</th>"
            "<th>Ref→Peer</th><th>Duration (s)</th><th>On-wire (s)</th>"
            "<th>Segments</th></tr>",
            *[
                f"<tr><td>{html.escape(r['algorithm'])}</td>"
                f"<td>{html.escape(r['level'] or '-')}</td>"
                f'<td class="num">{r["round_index"]}</td>'
                f'<td class="num">{r["ref"]}&rarr;{r["peer"]}</td>'
                f'<td class="num">{_fmt(r["duration_s"])}</td>'
                f'<td class="num">{_fmt(r["path_msg_s"])}</td>'
                f'<td class="num">{r["segments"]}</td></tr>'
                for r in rounds
            ],
            "</table>",
        ]
    out.append("</section>")
    return "".join(out)


def _render_metrics(metricsd: dict) -> str:
    out = ["<section><h2>Metrics</h2>"]
    counters = metricsd.get("counters", {})
    if counters:
        out.append("<table><tr><th>Counter</th><th>Value</th></tr>")
        out += [
            f"<tr><td>{html.escape(label)}</td>"
            f'<td class="num">{value:g}</td></tr>'
            for label, value in counters.items()
        ]
        out.append("</table>")
    histograms = {
        label: h for label, h in metricsd.get("histograms", {}).items()
        if h["count"]
    }
    if histograms:
        out.append(
            "<table style='margin-top:12px'><tr><th>Histogram</th>"
            "<th>n</th><th>mean</th><th>p50</th><th>p99</th><th>max</th>"
            "</tr>"
        )
        for label, h in histograms.items():
            out.append(
                f"<tr><td>{html.escape(label)}</td>"
                f'<td class="num">{h["count"]}</td>'
                + "".join(
                    f'<td class="num">{_fmt(h[k])}</td>'
                    for k in ("mean", "p50", "p99", "max")
                )
                + "</tr>"
            )
        out.append("</table>")
    out.append("</section>")
    return "".join(out)


def render_html(report: dict) -> str:
    """Render the report dict as one self-contained HTML page."""
    meta = report.get("meta", {})
    title = "Clock-health report"
    if meta.get("targets"):
        title += ": " + ", ".join(map(str, meta["targets"]))
    meta_line = " · ".join(
        f"{key}={value}"
        for key, value in meta.items()
        if key != "targets" and value is not None
    )
    body = [
        "<main>",
        "<section>",
        f"<h1>{html.escape(title)}</h1>",
        f'<div class="meta">{html.escape(meta_line)}'
        + (
            f" · generated {html.escape(report['generated_at'])}"
            if "generated_at" in report
            else ""
        )
        + "</div>",
        "</section>",
    ]
    if "health" in report:
        body.append(_render_health(report["health"]))
    if report.get("critical_path"):
        body.append(_render_critical_path(report["critical_path"]))
    if "timeseries" in report:
        body.append(_render_sparklines(report["timeseries"]))
    if "metrics" in report:
        body.append(_render_metrics(report["metrics"]))
    body.append("</main>")
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\"/>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(body)
        + "</body></html>\n"
    )
