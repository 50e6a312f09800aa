"""perfbench's own checks: ``python3 -m pytest perfbench/selftest.py``.

Not part of tier-1 (``testpaths`` is ``tests``).  Everything runs the
real entry point under ``--smoke``, so it exercises the same code path
and checks as a measured run, in about two minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
from report import ROOT, format_tables
from run import load_benchmark
from workloads import WORKLOADS

RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

BENCHMARK = load_benchmark()


def run_py(*args: str, cwd: str = ROOT, script: str = RUN):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert len(BENCHMARK["workloads"]) == 7
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(BENCHMARK["end_to_end"]) <= 16
    assert len(BENCHMARK["per_layer"]) <= 128
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_every_declared_metric(workload, trace):
    proc = run_py(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0


def test_forced_fingerprint_mismatch_is_counted_as_failed():
    proc = run_py(
        "--workload", "sync_flat_p256_observed", "--seed", "5",
        "--seconds", "1", "--trace", "0", "--smoke", "--inject-mismatch",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "sim_fingerprint differs" in proc.stderr


def test_exits_nonzero_where_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = run_py(
        "--workload", "sync_jk_p1024", "--seed", "0", "--seconds", "1",
        "--trace", "0",
        cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_smoke_pass_writes_one_self_describing_result(tmp_path):
    proc = run_py("--smoke", "--json", "--seed", "7", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (path,) = tmp_path.iterdir()
    with open(path) as fh:
        assert json.load(fh) == doc
    assert doc["claim"] is None
    assert sorted(doc["order"]) == sorted(WORKLOADS)
    for key in ("python", "numpy", "cpu_count", "affinity", "governor",
                "git", "loadavg_before", "loadavg_after"):
        assert key in doc["factors"]
    for name, record in doc["workloads"].items():
        assert record["ops_failed"] == 0, (name, record["failures"])
        assert record["sim_fingerprint"]["result_sha256"]
        assert record["summary"]["wall_s"]["n"] == 2
        assert record["samples"]["wall_s"]
    assert "sync_jk_p1024" in format_tables(doc)


def test_compare_verdicts_follow_the_rule():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1)[0] == "regressed"
    assert compare.verdict(base, base[::-1], 0.1)[0] == "unchanged"
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6, 1.1, 0.9]
    assert compare.verdict(noisy, noisy[::-1], 0.1)[0] == "unresolved"
    # 5% slower is inside the 10% bound: not a regression, not a gain
    assert compare.verdict(base, [v * 1.05 for v in base], 0.1) == (
        "unchanged", 0
    )
