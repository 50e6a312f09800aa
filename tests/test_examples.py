"""Smoke tests: the example scripts run cleanly end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


def run_example(name: str, timeout: float = 240.0, cwd=None):
    # Absolute src path so examples import repro from any working dir.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
        env=env,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "sync duration" in result.stdout
        assert "max |offset|" in result.stdout

    def test_trace_amg(self, tmp_path):
        result = run_example("trace_amg.py", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "events INVISIBLE" in result.stdout
        assert "events visible" in result.stdout
        assert (tmp_path / "amg_trace_global_clock.json").exists()

    def test_hierarchical_sync(self):
        result = run_example("hierarchical_sync.py")
        assert result.returncode == 0, result.stderr
        assert "H3HCA" in result.stdout
        assert "incorrect" in result.stdout

    def test_inspect_run(self, tmp_path):
        result = run_example("inspect_run.py", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "engine events" in result.stdout
        assert "sync rounds" in result.stdout
        assert (tmp_path / "inspect_raw_local_clock.json").exists()
        assert (tmp_path / "inspect_global_clock.json").exists()

    def test_health_report(self, tmp_path):
        result = run_example("health_report.py", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "health status:" in result.stdout
        assert "desync_breach" in result.stdout
        assert (tmp_path / "report.html").exists()
        assert (tmp_path / "report.json").exists()

    @pytest.mark.slow
    def test_tune_allreduce(self):
        result = run_example("tune_allreduce.py")
        assert result.returncode == 0, result.stderr
        assert "winner" in result.stdout

    @pytest.mark.slow
    def test_algorithm_crossover(self):
        result = run_example("algorithm_crossover.py")
        assert result.returncode == 0, result.stderr
        assert "scatter_allgather" in result.stdout
        assert "rabenseifner" in result.stdout
