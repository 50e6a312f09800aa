"""Fuzzer loop: archive format, replay determinism, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.context import current_context, run_context
from repro.errors import ConfigurationError, InvariantViolation
from repro.faults.scenarios import make_scenario
from repro.scenarios import fuzz as fuzz_mod
from repro.scenarios.fuzz import (
    REPRO_VERSION,
    archive,
    archive_path,
    fuzz,
    main,
    replay,
    run_cell,
)


def preset_cell(name="delay_attack", **overrides):
    return {
        "scenario": make_scenario(name, **overrides).to_dict(),
        "label": "hca/4/skampi_offset/4",
        "num_nodes": 4,
        "ranks_per_node": 1,
        "rounds": 1,
        "seed": 0,
    }


class TestRunCell:
    def test_runs_a_preset_cell(self):
        result = run_cell(preset_cell())
        assert result.scenario == "delay_attack"
        assert result.violations == []
        assert result.degradation > 1.0

    def test_runs_strict_whatever_the_callers_context(self, monkeypatch):
        """The fuzzer's contract is the strict sanitizer: an outer
        report-mode context must not leak into the cell."""
        seen = []

        def record(*args, **kwargs):
            seen.append(current_context().check)
            raise InvariantViolation("stop")

        monkeypatch.setattr(fuzz_mod, "run_scenario_cell", record)
        with run_context(check="report"):
            run_cell(preset_cell())
            assert current_context().check == "report"
        assert seen == ["strict"]

    def test_invariant_violation_folds_into_result(self, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantViolation("clock ran backwards")

        monkeypatch.setattr(fuzz_mod, "run_scenario_cell", boom)
        result = run_cell(preset_cell())
        assert result.violations == ["invariant:clock ran backwards"]
        assert result.scenario == "delay_attack"


class TestArchive:
    def test_content_addressed_and_stable(self, tmp_path):
        cell = preset_cell()
        path_a = archive_path(str(tmp_path), cell)
        path_b = archive_path(str(tmp_path), dict(cell))
        assert path_a == path_b
        assert path_a != archive_path(
            str(tmp_path), preset_cell(extra_delay=1.0)
        )

    def test_written_file_is_replay_ready(self, tmp_path):
        cell = preset_cell()
        path = archive(str(tmp_path), cell, ["error_budget:x"])
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["repro_version"] == REPRO_VERSION
        assert data["cell"] == cell
        assert data["violations"] == ["error_budget:x"]


class TestReplay:
    def test_version_mismatch_refused(self, tmp_path, capsys):
        path = tmp_path / "repro_old.json"
        path.write_text(json.dumps({"repro_version": 0, "cell": {}}))
        assert replay(str(path)) == 2
        assert "unsupported repro_version" in capsys.readouterr().err

    def test_version_1_layout_refused(self, tmp_path, capsys):
        """A repro archived before the models were one: its scenario has
        ``adversaries`` next to a nested ``faults`` schedule.  Neither
        the version gate nor the loader may let it replay "clean"."""
        cell = preset_cell()
        cell["scenario"] = {
            "name": "delay_attack", "description": "", "error_budget": 0.05,
            "adversaries": cell["scenario"]["faults"], "faults": None,
        }
        path = tmp_path / "repro_v1.json"
        path.write_text(json.dumps(
            {"repro_version": 1, "cell": cell, "violations": ["x"]}
        ))
        assert replay(str(path)) == 2
        assert "unsupported repro_version 1" in capsys.readouterr().err
        with pytest.raises(ConfigurationError, match="adversaries"):
            run_cell(cell)

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read repro file"),
        ("{not json", "cannot read repro file"),
        ("[1, 2]", "unsupported repro_version None"),
    ])
    def test_unreadable_file_exits_2(
        self, tmp_path, capsys, content, message
    ):
        """Exit 1 means "violation reproduced"; a missing or garbled
        file must not read as one in scripts."""
        path = tmp_path / "repro_x.json"
        if content is not None:
            path.write_text(content)
        assert replay(str(path)) == 2
        assert main(["--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(message) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("cell"), "no cell object"),
        (lambda doc: doc["cell"].pop("label"), "no label string"),
        (lambda doc: doc["cell"].update(rounds="1"), "rounds must be"),
        (lambda doc: doc["cell"].update(num_nodes=0), "num_nodes must be"),
        (lambda doc: doc["cell"]["scenario"].pop("name"), "missing 'name'"),
    ], ids=["no-cell", "no-label", "str-rounds", "zero-nodes", "no-name"])
    def test_malformed_cell_exits_2(self, tmp_path, capsys, edit, message):
        """A version-2 file whose cell cannot be built is bad input (2),
        not a crash and not "reproduced" (1)."""
        doc = {"repro_version": REPRO_VERSION, "cell": preset_cell(),
               "violations": ["x"]}
        edit(doc)
        path = tmp_path / "repro_bad.json"
        path.write_text(json.dumps(doc))
        assert main(["--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "malformed repro file" in captured.err
        assert message in captured.err

    def test_clean_cell_does_not_reproduce(self, tmp_path, capsys):
        # Archive a violation the cell never actually produces.
        path = archive(str(tmp_path), preset_cell(), ["error_budget:fake"])
        assert replay(path) == 0
        assert "did NOT reproduce" in capsys.readouterr().out


class TestFuzzEndToEnd:
    def test_hostile_fuzz_archives_and_replays(self, tmp_path, capsys):
        """The full loop: hostile mode finds a violation within a tiny
        budget, shrinks it, archives a repro file, and replaying that
        file reproduces the identical violations deterministically."""
        out = tmp_path / "repros"
        assert fuzz(budget=8, seed=0, out_dir=str(out), hostile=True) == 1
        stdout = capsys.readouterr().out
        assert "shrunk repro archived" in stdout
        repros = sorted(out.glob("repro_*.json"))
        assert len(repros) == 1
        data = json.loads(repros[0].read_text())
        assert data["violations"]
        assert replay(str(repros[0])) == 1
        assert "violation reproduced" in capsys.readouterr().out

    def test_friendly_fuzz_passes(self, tmp_path, capsys):
        out = tmp_path / "repros"
        assert fuzz(budget=6, seed=3, out_dir=str(out), hostile=False) == 0
        assert "no violations" in capsys.readouterr().out
        assert not out.exists()

    def test_cli_replay_round_trip(self, tmp_path):
        out = tmp_path / "repros"
        assert main([
            "--budget", "8", "--seed", "0", "--hostile",
            "--out", str(out),
        ]) == 1
        repro = sorted(out.glob("repro_*.json"))[0]
        assert main(["--replay", str(repro)]) == 1


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_exits_2(tmp_path, capsys, budget):
    out = tmp_path / "repros"
    assert main(["--budget", budget, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--budget must be >= 1, got {int(budget)}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--budget", "--seed", "--out",
                                  "--hostile", "--replay"])
def test_parser_knows_flag(flag):
    from repro.scenarios.fuzz import build_parser

    text = build_parser().format_help()
    assert flag in text
