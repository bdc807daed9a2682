"""The command's contract: BENCHMARK.json agrees with the code, output shape."""

import json
import shutil
import subprocess
import sys

from perfbench import run, tracing
from perfbench.workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_untraced_run_prints_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum-mixed",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "beyond p90" in proc.stdout and "git_sha" in proc.stdout


def test_traced_run_prints_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n4",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json_line(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == set(tracing.metric_units())


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
