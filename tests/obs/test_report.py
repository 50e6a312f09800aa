"""Run reports: serial/parallel byte-identity and artifact shape."""

from __future__ import annotations

import json
from dataclasses import replace

from repro.cluster.machines import JUPITER
from repro.experiments.common import QUICK, run_sync_accuracy_campaign
from repro.obs.health import evaluate_health
from repro.context import run_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    VOLATILE_FIELDS,
    build_report,
    render_html,
    sparkline_svg,
    write_report,
)
from repro.obs.timeseries import TimeSeriesBank

TINY = replace(QUICK, num_nodes=4, ranks_per_node=2, nfitpoints=8,
               nexchanges=6, nmpiruns=2)

LABELS = ["hca3/recompute_intercept/8/skampi_offset/6",
          "jk/8/skampi_offset/3"]


def _campaign_report(jobs: int) -> dict:
    bank = TimeSeriesBank()
    registry = MetricsRegistry()
    with run_context(timeseries=bank, metrics=registry):
        run_sync_accuracy_campaign(
            JUPITER, LABELS, scale=TINY, seed=3, jobs=jobs
        )
    return build_report(
        bank=bank,
        metrics=registry,
        verdict=evaluate_health(bank),
        meta={"targets": ["fig3"], "scale": "tiny", "seed": 3},
    )


class TestReportIdentity:
    def test_serial_and_parallel_reports_byte_identical(self):
        # The acceptance bar: report.json from --jobs 1 and --jobs 2 must
        # be byte-identical (generated_at is only added by write_report).
        serial = _campaign_report(jobs=1)
        parallel = _campaign_report(jobs=2)
        text_s = json.dumps(serial, indent=2, sort_keys=True)
        text_p = json.dumps(parallel, indent=2, sort_keys=True)
        assert text_s == text_p

    def test_report_has_per_rank_error_series_and_detectors(self):
        report = _campaign_report(jobs=1)
        names = {s["name"] for s in report["timeseries"]["series"]}
        error_series = [
            s for s in report["timeseries"]["series"]
            if s["name"].endswith("clock.error") and s["rank"] is not None
        ]
        assert error_series, f"no per-rank clock.error series in {names}"
        # One scope per (label, run) pair, ranks 1..7 per scope.
        ranks = {s["rank"] for s in error_series}
        assert ranks == set(range(1, TINY.nprocs))
        assert set(report["health"]["detectors"]) == {
            "drift_excursion", "desync_breach",
            "resync_latency", "stuck_clock", "stale_read",
            "depth_anomaly", "byzantine_suspect", "congestion_desync",
        }
        assert "parallel.workers" not in report["metrics"]["gauges"]


class TestArtifacts:
    def test_write_report_emits_both_files(self, tmp_path):
        report = _campaign_report(jobs=1)
        json_path, html_path = write_report(report, str(tmp_path))
        with open(json_path) as fh:
            loaded = json.load(fh)
        for field in VOLATILE_FIELDS:
            assert field in loaded
            del loaded[field]
        assert loaded == report
        html = open(html_path).read()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in html  # sparklines inlined
        assert "clock-health report" in html.lower()
        # Self-contained: no external fetches.
        assert "http://" not in html
        assert "https://" not in html

    def test_critical_path_section_renders(self):
        analyses = [{
            "run": 0, "p": 16, "duration_s": 10.1,
            "critical_path": {
                "length_s": 10.1,
                "by_kind_s": {"compute": 10.0, "msg": 0.08, "ack": 0.02},
            },
            "depth": {"level_depth": 4, "expected": 6, "ratio": 0.67,
                      "round_depth": 4, "algorithms": ["hca"]},
            "rounds": [{
                "algorithm": "hca", "level": "", "round_index": 1,
                "ref": 0, "peer": 5, "duration_s": 0.01,
                "path_msg_s": 0.004, "path_compute_s": 0.006,
                "segments": 12, "max_edge_s": 0.001,
            }],
        }]
        report = build_report(
            verdict=evaluate_health(TimeSeriesBank()),
            meta={"targets": ["fig3"]},
            critical_path=analyses,
        )
        assert report["critical_path"] == analyses
        html = render_html(report)
        assert "Sync-round critical path" in html
        assert "Slowest sync rounds" in html
        assert "hca" in html
        # Without analyses the section is absent entirely.
        bare = render_html(build_report(meta={"targets": ["fig3"]}))
        assert "Sync-round critical path" not in bare

    def test_render_html_on_empty_report(self):
        empty = build_report(
            bank=TimeSeriesBank(),
            metrics=MetricsRegistry(),
            verdict=evaluate_health(TimeSeriesBank()),
            meta={"targets": ["fig2"]},
        )
        html = render_html(empty)
        assert "OK" in html

    def test_sparkline_svg_shapes(self):
        points = [(float(i), (i % 5) * 1e-5) for i in range(30)]
        svg = sparkline_svg(points, marks=[15.0], tolerance=2e-5)
        assert svg.startswith("<svg")
        assert svg.count("<path") >= 1
        # Degenerate input degrades to a text placeholder, not a crash.
        assert "<svg" not in sparkline_svg([], marks=[])
