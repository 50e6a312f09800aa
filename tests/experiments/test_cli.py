"""Tests for the command-line experiment runner."""

import contextlib
import io
import json

import pytest

from repro.experiments.__main__ import (
    TARGETS,
    build_parser,
    main,
    parse_args,
)
from repro.experiments.record import run_description
from repro.context import current_context


def _record(tmp_path, name, *argv):
    """Run ``main([*argv, "--record", DIR])``; return DIR, stdout, status."""
    out_dir = tmp_path / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main([*argv, "--record", str(out_dir)])
    return out_dir, stdout.getvalue(), status


def _json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """``fig3 --check --record DIR --trace`` at --jobs 1 and --jobs 2."""
    tmp = tmp_path_factory.mktemp("traced")
    return {
        jobs: _record(tmp, f"j{jobs}", "fig3", "--check", "--trace",
                      "--jobs", str(jobs))
        for jobs in (1, 2)
    }


class TestParser:
    def test_all_targets_registered(self):
        expected = {"table1", "fig2", "fig3", "fig4", "fig5", "fig6",
                    "fig7", "fig8", "fig9", "fig10", "fault_recovery",
                    "service_slo", "scenario_degradation"}
        assert set(TARGETS) == expected

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == "quick"
        assert args.seed == 0

    def test_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--scale", "enormous"])


class TestTargetFlags:
    """No flag may be silently ignored: a target rejects what it won't read."""

    FLAGS = [
        (["--scenario", "thermal_cycle"], ["fault_recovery"]),
        (["--slo", "1e-4"], ["service_slo"]),
    ]

    @pytest.mark.parametrize("flag, readers", FLAGS)
    def test_misused_flag_exits_2_naming_its_targets(
        self, flag, readers, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["table1", *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag[0] in err
        for target in readers:
            assert target in err

    @pytest.mark.parametrize("flag, readers", FLAGS)
    def test_accepted_by_its_own_targets_and_by_all(self, flag, readers):
        for target in [*readers, "all"]:
            args = parse_args([target, *flag])
            assert args.target == target

    @pytest.mark.parametrize("target", ["fault_recovery", "all"])
    def test_churn_preset_rejected_before_any_target_runs(
        self, target, capsys
    ):
        """Churn reshapes the machine between cell rounds; a recovery
        run is one mpirun, so the preset is a usage error up front."""
        with pytest.raises(SystemExit) as exc:
            main([target, "--scenario", "rank_churn"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "churn" in captured.err
        assert "scenario_degradation" in captured.err

    def test_unset_flags_take_the_target_defaults(self):
        args = parse_args(["all"])
        assert args.scenario == "ntp_step"
        assert args.slo == 25e-6
        assert args.record is None


class TestUsageErrors:
    """Bad input is a usage error (exit 2) that names its flag, raised
    at argument parsing, before any target runs."""

    @pytest.mark.parametrize("argv, flag", [
        (["fig3", "--seed", "-1"], "--seed"),
        (["fig3", "--seed", "x"], "--seed"),
        (["fig3", "--jobs", "-2"], "--jobs"),
        (["service_slo", "--slo", "-1"], "--slo"),
        (["service_slo", "--slo", "0"], "--slo"),
        (["service_slo", "--slo", "nan"], "--slo"),
        (["service_slo", "--slo", "inf"], "--slo"),
        (["fig3", "--profile"], "--profile"),
        (["fig3", "--trace"], "--trace"),
    ])
    def test_exits_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("argv", [
        ["--obs-summary"],
        ["--health-report", "d"],
        ["--profile", "d"],
        ["--critical-path", "d"],
        ["--check-report", "d"],
        ["--chrome-trace-dir", "d"],
    ])
    def test_removed_artifact_flags_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig10", *argv, "--record", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "r").exists()


class TestMain:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "jupiter" in out
        assert "[table1:" in out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out


class TestRecord:
    def test_manifest_describes_the_run(self, tmp_path):
        out_dir, out, status = _record(tmp_path, "r", "table1")
        assert status == 0
        manifest = _json(out_dir / "manifest.json")
        assert manifest["run"] == {
            "targets": ["table1"], "scale": "quick", "seed": 0,
            "check": False, "profile": False, "trace": False,
        }
        assert manifest["jobs"] == 1
        assert set(manifest["versions"]) == {"python", "numpy", "repro"}
        assert manifest["git"] is None or isinstance(manifest["git"], str)
        assert set(manifest["wall_s"]) == {"table1"}
        assert manifest["artifacts"] == ["report.html", "report.json"]
        # The report is headed by the same description.
        assert _json(out_dir / "report.json")["meta"] == manifest["run"]
        assert "=== clock-health report ===" in out
        assert f"manifest.json: {out_dir / 'manifest.json'}" in out

    def test_target_options_described_only_when_read(self):
        assert "scenario" not in run_description(
            parse_args(["fig3"]), ["fig3"]
        )
        run = run_description(parse_args(["all"]), sorted(TARGETS))
        assert run["scenario"] == "ntp_step"
        assert run["slo"] == 25e-6

    def test_reused_record_dir_exits_2_and_leaves_it_untouched(
        self, tmp_path, capsys
    ):
        """A second --check run into the same DIR would aggregate the
        first run's per-process reports into its own verdict."""
        out_dir, _, status = _record(tmp_path, "r", "fig3", "--check")
        assert status == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert _json(out_dir / "check_report.json")["runs"] == 12
        with pytest.raises(SystemExit) as exc:
            _record(tmp_path, "r", "fig3", "--check")
        assert exc.value.code == 2
        assert "--record" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_record_path_that_is_a_file_exits_2(self, tmp_path):
        (tmp_path / "f").write_text("x")
        with pytest.raises(SystemExit) as exc:
            _record(tmp_path, "f", "table1")
        assert exc.value.code == 2

    def test_trace_exports_the_fig10_perfetto_pair(self, tmp_path):
        out_dir, out, _ = _record(tmp_path, "t", "fig10", "--trace")
        names = ["fig10_global_clock.json", "fig10_raw_local_clock.json"]
        for name in names:
            records = _json(out_dir / name)
            assert records and all("ph" in r for r in records)
        assert set(names) <= set(_json(out_dir / "manifest.json")["artifacts"])
        assert "=== chrome trace export" in out
        plain_dir, plain, _ = _record(tmp_path, "p", "fig10")
        assert not (plain_dir / names[0]).exists()
        assert "chrome trace" not in plain


class TestRecordIsJobsIndependent:
    def test_artifacts_byte_identical_across_jobs(self, traced):
        (one, _, s1), (two, _, s2) = traced[1], traced[2]
        assert s1 == s2 == 0
        for name in ("critical_path.json", "check_report.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()
        reports = [_json(d / "report.json") for d in (one, two)]
        for report in reports:
            report.pop("generated_at")
        assert reports[0] == reports[1]
        assert _json(one / "check_report.json")["runs"] == 12

    def test_manifests_differ_only_in_jobs_and_wall_seconds(self, traced):
        one, two = (_json(traced[j][0] / "manifest.json") for j in (1, 2))
        assert (one["jobs"], two["jobs"]) == (1, 2)
        for manifest in (one, two):
            del manifest["jobs"], manifest["wall_s"]
        assert one == two


@pytest.mark.parametrize(
    "target, runs, events",
    [("fig3", 12, 246_250), ("scenario_degradation", 40, 79_345)],
)
def test_check_report_reaches_jobs_workers(tmp_path, target, runs, events):
    """Report mode checks every job wherever it runs: the record's
    ``check_report.json`` is byte-equal at ``--jobs 1`` and ``--jobs 2``
    with the seed-0 counts, and a record directory holds nothing but the
    manifest and the artifacts it lists."""
    reports = []
    for jobs in (1, 2):
        out_dir, _, status = _record(
            tmp_path, f"j{jobs}", target, "--scale", "quick", "--seed", "0",
            "--jobs", str(jobs), "--check",
        )
        assert status == 0
        manifest = _json(out_dir / "manifest.json")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["manifest.json", *manifest["artifacts"]]
        )
        reports.append((out_dir / "check_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert (report["runs"], report["events_checked"]) == (runs, events)
    assert report["ok"]


class TestCriticalPathFlag:
    def test_writes_artifact_and_prints_table(self, traced):
        out_dir, out, _ = traced[1]
        assert "=== sync-round critical path ===" in out
        assert "depth" in out

        doc = _json(out_dir / "critical_path.json")
        assert doc["critical_path_version"] == 1
        assert "meta" not in doc
        manifest = _json(out_dir / "manifest.json")
        assert manifest["run"]["targets"] == ["fig3"]
        assert manifest["run"]["trace"] is True
        assert doc["runs"]
        for entry in doc["runs"]:
            assert entry["open_edges"] == 0
            assert entry["depth"]["level_depth"] >= 1
        counts = doc["event_counts"]
        assert counts["MsgSend"] == counts["MsgDeliver"] > 0
        assert sum(counts.values()) == _json(
            out_dir / "check_report.json"
        )["events_checked"]

        # The measured depth ratios feed the health report: a depth
        # series and a rendered critical-path section must both land.
        report = _json(out_dir / "report.json")
        series_names = {s["name"] for s in report["timeseries"]["series"]}
        assert "sync.critical.depth_ratio" in series_names
        assert report["critical_path"]
        html = (out_dir / "report.html").read_text()
        assert "Sync-round critical path" in html

    def test_traced_summary_matches_untraced(self, traced, tmp_path):
        # --trace tees a counting sink and a span recorder onto the
        # stream; the metrics must be identical to an untraced run.
        out_dir, _, _ = _record(tmp_path, "u", "fig3", "--check")
        untraced = _json(out_dir / "manifest.json")["metrics"]
        assert untraced
        assert untraced == _json(traced[1][0] / "manifest.json")["metrics"]

    def test_no_tracing_flag_leaves_output_clean(self, capsys):
        assert main(["fig3"]) == 0
        assert "critical path" not in capsys.readouterr().out


class TestProfileFlag:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_profile_writes_artifacts(self, tmp_path, jobs):
        # At --jobs 2 the profile is merged from the workers' trees; the
        # exporter keeps the self times' sum equal to the measured total
        # either way.
        out_dir, out, _ = _record(
            tmp_path, "p", "fig3", "--profile", "--jobs", str(jobs)
        )
        assert "=== simulator self-profile ===" in out
        doc = _json(out_dir / "profile.json")
        assert doc["format"] == "repro-profile"
        assert "meta" not in doc
        assert doc["total_ns"] > 0
        assert sum(z["self_ns"] for z in doc["zones"]) == doc["total_ns"]
        ss = _json(out_dir / "profile.speedscope.json")
        assert ss["profiles"][0]["events"]
        manifest = _json(out_dir / "manifest.json")
        assert manifest["run"]["targets"] == ["fig3"]
        assert manifest["run"]["profile"] is True
        assert {"profile.json", "profile.speedscope.json"} <= set(
            manifest["artifacts"]
        )
        # The profiler is uninstalled after the run.
        assert current_context().profiler is None

    def test_obs_summary_lists_slowest_zones(self, tmp_path):
        _, out, _ = _record(tmp_path, "p", "fig3", "--profile", "--trace")
        assert "slowest zones (self time):" in out

    def test_obs_summary_without_profile_omits_zones(self, tmp_path):
        _, out, _ = _record(tmp_path, "t", "table1", "--trace")
        assert "=== observability summary ===" in out
        assert "slowest zones" not in out
