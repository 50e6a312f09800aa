"""Tests for the command-line experiment runner."""

import json

import pytest

from repro.experiments.__main__ import (
    TARGETS,
    build_parser,
    main,
    parse_args,
)
from repro.context import current_context


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
        (["--chrome-trace-dir", "d"], ["fig10", "fault_recovery"]),
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

    def test_check_and_check_report_are_exclusive(self, tmp_path, capsys):
        report_dir = tmp_path / "cr"
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--check", "--check-report", str(report_dir)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--check-report" in err and "not allowed" in err
        # Rejected in parse_args, before any target ran.
        assert not report_dir.exists()

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
        assert args.chrome_trace_dir is None


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


class TestCriticalPathFlag:
    def test_writes_artifact_and_prints_table(self, tmp_path, capsys):
        cp_dir = tmp_path / "cp"
        report_dir = tmp_path / "health"
        assert main([
            "fig3", "--critical-path", str(cp_dir),
            "--health-report", str(report_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "=== sync-round critical path ===" in out
        assert "depth" in out

        with open(cp_dir / "critical_path.json") as fh:
            doc = json.load(fh)
        assert doc["critical_path_version"] == 1
        assert doc["meta"]["targets"] == ["fig3"]
        assert doc["runs"]
        for entry in doc["runs"]:
            assert entry["open_edges"] == 0
            assert entry["depth"]["level_depth"] >= 1

        # The measured depth ratios feed the health report: a depth
        # series and a rendered critical-path section must both land.
        with open(report_dir / "report.json") as fh:
            report = json.load(fh)
        series_names = {s["name"] for s in report["timeseries"]["series"]}
        assert "sync.critical.depth_ratio" in series_names
        assert report["critical_path"]
        html = (report_dir / "report.html").read_text()
        assert "Sync-round critical path" in html

    def test_traced_summary_matches_untraced(self, tmp_path, capsys):
        # --obs-summary composes with --critical-path via a tee; the
        # message counters must be identical to an untraced run.
        assert main(["fig3", "--obs-summary"]) == 0
        untraced = capsys.readouterr().out
        assert main([
            "fig3", "--obs-summary", "--critical-path", str(tmp_path),
        ]) == 0
        traced = capsys.readouterr().out
        section = "=== observability summary ==="
        tail = traced.split(section)[1].split("=== sync-round")[0]
        assert untraced.split(section)[1].startswith(tail.rstrip())

    def test_no_tracing_flag_leaves_output_clean(self, capsys):
        assert main(["fig3"]) == 0
        assert "critical path" not in capsys.readouterr().out


class TestProfileFlag:
    def test_profile_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "prof"
        assert main(["fig3", "--profile", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "=== simulator self-profile ===" in out
        with open(out_dir / "profile.json") as fh:
            doc = json.load(fh)
        assert doc["format"] == "repro-profile"
        assert doc["meta"]["targets"] == ["fig3"]
        assert doc["total_ns"] > 0
        assert sum(z["self_ns"] for z in doc["zones"]) == doc["total_ns"]
        with open(out_dir / "profile.speedscope.json") as fh:
            ss = json.load(fh)
        assert ss["profiles"][0]["events"]
        # The profiler is uninstalled after the run.
        assert current_context().profiler is None

    def test_obs_summary_lists_slowest_zones(self, tmp_path, capsys):
        assert main([
            "fig3", "--profile", str(tmp_path / "p"), "--obs-summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "slowest zones (self time):" in out

    def test_obs_summary_without_profile_omits_zones(self, capsys):
        assert main(["table1", "--obs-summary"]) == 0
        assert "slowest zones" not in capsys.readouterr().out
