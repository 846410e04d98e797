"""End-to-end check of the benchmark harness at smoke size.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    result = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in doc["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
