"""Every workload runs end to end at toy size, passes its checks, and
prints exactly the metrics ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path) -> dict:
    cmd = [
        sys.executable, str(ROOT / "loadbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--quick",
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_reports_declared_metrics(workload, tmp_path):
    plain = run(workload, 0, tmp_path)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run(workload, 1, tmp_path)
    assert traced["correct"] and traced["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
    if workload != "daemon-live":
        # self times of all layers cover the traced timed phase
        ratio = traced["metrics"]["trace.self_sum_ratio"]["value"]
        assert 0.95 <= ratio <= 1.05


def test_refuses_to_run_without_program_sources(tmp_path):
    # a checkout holding only BENCHMARK.json and the benchmark's files
    shutil.copytree(ROOT / "loadbench", tmp_path / "loadbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "loadbench/run.py", "--workload", "fleet-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
